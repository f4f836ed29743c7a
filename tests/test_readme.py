"""The README's library example and timing recipe must run as written, and its sweep
commands must parse."""

import dataclasses
import re
import shlex
from pathlib import Path

import pytest

import chirplink
from chirplink import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_timing_recipe_runs(monkeypatch, capsys):
    # the heredoc behind the ms-per-frame table, cut to one frame per run
    (recipe,) = re.findall(r"<<'EOF'\n(.*?)^EOF$", TEXT, re.S | re.M)
    run_ber = chirplink.run_ber
    monkeypatch.setattr(chirplink, "run_ber",
                        lambda cfg: run_ber(dataclasses.replace(cfg, max_frames=1)))
    exec(compile(recipe, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    channels = ("awgn", "rayleigh-static-est", "rayleigh-mobile-est", "tvfs-est")
    assert [line.rsplit(" ", 2)[0] for line in lines] == [
        f"{ch} {sf}" for ch in channels for sf in (7, 10, 12)
    ]
    assert all(re.fullmatch(r"\S+ \d+ \S+ ms/frame", line) for line in lines)


def _sweep_commands() -> list[list[str]]:
    """Every ``chirplink ber`` / ``throughput`` command of the ``sh`` blocks, as argv.

    Backslash continuations are joined and ``for var in ...; do`` loops are
    expanded, one command per value.
    """
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S):
        lines += block.replace("\\\n", " ").splitlines()
    expanded, loop = [], None
    for line in lines:
        head = re.fullmatch(r"\s*for (\w+) in (.*); do\s*", line)
        if head:
            loop = (head[1], head[2].split(), [])
        elif loop and line.strip() == "done":
            var, values, body = loop
            expanded += [re.sub(rf"\${var}\b", v, b) for v in values for b in body]
            loop = None
        else:
            (loop[2] if loop else expanded).append(line)
    commands = []
    for line in expanded:
        if re.search(r"\bchirplink (ber|throughput)\b", line):
            argv = shlex.split(line, comments=True)
            commands.append(argv[argv.index("chirplink") + 1:])
    return commands


COMMANDS = _sweep_commands()


def test_every_sweep_command_is_found():
    # 3 under "Command line", 1 config-file example and 7 long-run recipes
    assert len(COMMANDS) == 11
    assert not any("$" in arg for argv in COMMANDS for arg in argv)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_sweep_command_validates(argv, tmp_path, monkeypatch):
    # nothing is simulated: parse, build the config and validate it
    ini = re.findall(r"```ini\n(.*?)```", TEXT, re.S)
    assert len(ini) == 1
    (tmp_path / "sweep.cfg").write_text(ini[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(cli._merge_negative_values(argv))
    cfg = cli._config_from_args(args)
    cfg.validate()
    if argv[0] == "throughput":
        assert cfg.axis == "snr"
