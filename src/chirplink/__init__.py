"""Chirp spread spectrum link simulator and modem library.

Implements the classic chirp-FSK physical layer (non-coherent detection) and
a coherent variant that carries two data symbols per chirp on the in-phase
and quadrature components, together with channel models, least-squares
channel estimation, equalization and a Monte Carlo sweep harness.
"""

from .chirp import (
    despread,
    dft,
    raw_downchirp,
    raw_upchirp,
    spreading_gain_db,
)
from .modem import (
    IqPair,
    iqcss_demodulate,
    iqcss_modulate,
    lora_demod_coherent,
    lora_demod_noncoherent,
    lora_modulate,
)
from .framing import FrameConfig, average_sync, build_frame, extract_regions
from .channel import (
    ChannelRealization,
    TapProfile,
    apply_awgn,
    apply_channel,
    bits_per_symbol,
    ebn0_db_to_snr_db,
    ebn0_to_sigma2,
    load_tap_profile,
    max_doppler_hz,
    snr_db_to_ebn0_db,
    snr_to_sigma2,
    tvfs_realization,
    urban_12tap_profile,
)
from .chanest import (
    equalize_fd,
    equalize_flat,
    ls_flat,
    ls_selective,
)
from .harness import (
    STREAM_VERSION,
    ConfigError,
    SimConfig,
    SimRecord,
    records_to_csv,
    run_ber,
    run_throughput,
    shannon_capacity_bps,
    symbol_rate_bps,
    write_csv,
)

__version__ = "0.1.0"
