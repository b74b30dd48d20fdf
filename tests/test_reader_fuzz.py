"""A seeded mutation fuzz of the readers, driven through ``cli.main``.

Each case mutates one valid input (a PGM header, a checkpoint header or
first tensor record, a dataset manifest, a config file) and runs the
command that reads it.  Whatever the bytes, the command exits 0, 1 or 2,
and a failure prints a one-line message with no traceback.  The seeds and
the number of cases are fixed, so a run is the same every time, and the
image sizes a mutated PGM header may claim are bounded, so that a reader
that trusts them fails fast instead of allocating gigabytes.

Random mutations rarely put a given number into a given key, so two
table-driven tests also write every value of ``_VALUES`` into every
checkpoint-header key and every config key, one key at a time.  Each of
those runs ends in a failure after the value is read and used, so each
case exits 2 with a message.
"""

import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from turbdiff import cli, formats
from turbdiff.cli import main
from turbdiff.denoiser import NetSpec, init_params
from turbdiff.formats import save_checkpoint, write_pgm
from turbdiff.rng import Rng

# bytes a mutation writes: separators, signs, digits, the comment mark, and
# bytes that are not ASCII
_BYTES = b"\x00\t\n\r =#,-+._0123456789eEx\x80\xff"
# what a mutation writes in place of a number; 10^15 in a setting that
# sizes an array would ask numpy for petabytes
_NUMBERS = (b"0", b"-1", b"2", b"255", b"65536", b"999999", b"nan", b"",
            b"1000000000000000")
_MAX_PIXELS = 1 << 16  # largest image a mutated PGM header may claim
# what a table-driven case writes as a key's value
_VALUES = tuple(dict.fromkeys(_NUMBERS + (b"nan", b"inf", b"")))
# every key of a checkpoint header: the net descriptor, the TrainConfig
# fields it stores, and its two flags
_HEADER_KEYS = ([f.name for f in fields(NetSpec)] + list(formats._META)
                + ["has_teacher", "has_opt"])
# (command, key) of every config key of every command that takes --config
_CONFIG_KEYS = [(command, key) for command, table in (
    ("gen-data", cli._GEN_KEYS), ("train", cli._TRAIN_KEYS),
    ("ablate pt", cli._PT_KEYS), ("ablate sampling", cli._SAMPLING_KEYS))
    for key in table]


def _mutate(data: bytes, r: Rng) -> bytes:
    """One to three edits of ``data``: a replaced byte, an inserted one, a
    deleted one, a flipped bit, or a number replaced by one of _NUMBERS."""
    b = bytearray(data)
    for _ in range(int(r.integers(1, 4)[0])):
        op, at, pick, bit = (int(x) for x in r.integers(0, 1 << 30, (4,)))
        op, byte = op % 6, _BYTES[pick % len(_BYTES)]
        numbers = list(re.finditer(rb"\d+", b))
        if op >= 4 and numbers:
            m = numbers[at % len(numbers)]
            b[m.start():m.end()] = _NUMBERS[pick % len(_NUMBERS)]
            continue
        at %= len(b) + (op == 1)  # an insertion may append
        if op == 0:
            b[at] = byte
        elif op == 1:
            b.insert(at, byte)
        elif op == 2 and len(b) > 1:
            del b[at]
        else:
            b[at] ^= 1 << bit % 8
    return bytes(b)


def _claimed_pixels(raw: bytes) -> int:
    """Width times height as ``read_pgm`` would parse them, or 0."""
    tokens = re.sub(rb"#[^\n]*\n?", b"", raw[:64]).split()
    try:
        return int(tokens[1]) * int(tokens[2])
    except (IndexError, ValueError):
        return 0


def _run(argv, capsys, case, codes=(0, 1, 2)) -> None:
    try:
        code = main(argv)
    except Exception as e:  # noqa: BLE001 -- reported with the case
        pytest.fail(f"{case}: {e!r} escaped main")
    err = capsys.readouterr().err
    assert "Traceback" not in err, (case, err)
    assert code in codes, (case, code, err)
    if code:
        last = err.splitlines()[-1] if err else ""
        assert last.startswith("error: ") and len(last) > 7, (case, err)


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    """A fresh 4x4 network's checkpoint."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.ckpt"
    spec = NetSpec(image_size=4, widths=(2, 2, 2, 2), emb_dim=2, groups=1)
    save_checkpoint(path, init_params(spec, Rng(0)))
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-data", "--out", str(root / "data"), "--count", "2"]) == 0
    return root / "data"


def test_mutated_pgm_headers(tmp_path, capsys):
    # 16-bit samples whose bytes are neither digits nor whitespace, so a
    # header token never runs on into the pixels; 16x16 holds SSIM's window
    img = (128 + np.arange(256).reshape(16, 16) % 128) * 256 / 65535
    for sub in ("pred", "ref"):
        (tmp_path / sub).mkdir()
        write_pgm(tmp_path / sub / "a.pgm", img)
    valid = (tmp_path / "ref" / "a.pgm").read_bytes()
    header = len(b"P5\n16 16\n65535\n")
    argv = ["eval", "--pred", str(tmp_path / "pred"), "--ref",
            str(tmp_path / "ref"), "--out", str(tmp_path / "scores.csv")]
    r = Rng(2024).stream(0)
    for case in range(400):
        raw = valid
        while raw == valid or _claimed_pixels(raw) > _MAX_PIXELS:
            raw = _mutate(valid[:header], r) + valid[header:]
        (tmp_path / "pred" / "a.pgm").write_bytes(raw)
        _run(argv, capsys, (case, raw[:24]))


def test_mutated_checkpoint_headers(tiny_ckpt, tmp_path, capsys):
    raw = tiny_ckpt.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    header, records = raw[12:12 + hlen], raw[12 + hlen:]
    (nlen,) = struct.unpack_from("<I", records, 0)
    ckpt = tmp_path / "m.ckpt"
    argv = ["restore", "--ckpt", str(ckpt), "--in", str(tmp_path / "x.pgm"),
            "--out", str(tmp_path / "out")]
    r = Rng(2024).stream(1)
    for case in range(400):
        h, rec = header, bytearray(records)
        if case % 5:
            h = _mutate(header, r)  # the header length follows the text
        else:
            # the first record's rank or first dim, set to a small value
            at = 4 + nlen + 8 * (case // 5 % 2)
            struct.pack_into("<Q", rec, at, int(r.integers(0, 70)[0]))
        ckpt.write_bytes(raw[:8] + struct.pack("<I", len(h)) + h + rec)
        _run(argv, capsys, (case, h if case % 5 else bytes(rec[:40])))


def test_mutated_manifests(corpus, tiny_ckpt, tmp_path, capsys):
    manifest = corpus / "manifest.txt"
    valid = manifest.read_bytes()
    # a 4x4 network: a manifest that reads is refused for its 32x32
    # images, so no case trains
    argv = ["train", "--stage", "weak", "--data", str(corpus), "--init",
            str(tiny_ckpt), "--out", str(tmp_path / "w.ckpt"), "--steps", "1"]
    r = Rng(2024).stream(2)
    try:
        for case in range(200):
            raw = _mutate(valid, r)
            manifest.write_bytes(raw)
            _run(argv, capsys, (case, raw))
    finally:
        manifest.write_bytes(valid)


def test_mutated_config_files(tmp_path, capsys):
    valid = (b"# gen-data settings\nseed = 3\nnoise_std=0.001\n"
             b"weak_factor=4\nelastic_sigma=2.5\nblur_sigma_max=1.5\n")
    config = tmp_path / "gen.cfg"
    argv = ["gen-data", "--config", str(config), "--out",
            str(tmp_path / "data"), "--count", "0"]
    r = Rng(2024).stream(3)
    for case in range(400):
        raw = _mutate(valid, r)
        config.write_bytes(raw)
        _run(argv, capsys, (case, raw))


@pytest.mark.parametrize("key", _HEADER_KEYS)
def test_every_header_key_takes_every_value(key, tiny_ckpt, tmp_path, capsys):
    # restore reads the checkpoint, then its --in image, which is missing:
    # a value the header accepts fails there
    raw = tiny_ckpt.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    lines = raw[12:12 + hlen].splitlines(keepends=True)
    assert [ln.split(b"=")[0].decode() for ln in lines] == _HEADER_KEYS
    ckpt = tmp_path / "m.ckpt"
    argv = ["restore", "--ckpt", str(ckpt), "--in", str(tmp_path / "x.pgm"),
            "--out", str(tmp_path / "out")]
    for value in _VALUES:
        h = b"".join(key.encode() + b"=" + value + b"\n"
                     if ln.split(b"=")[0].decode() == key else ln
                     for ln in lines)
        ckpt.write_bytes(raw[:8] + struct.pack("<I", len(h)) + h
                         + raw[12 + hlen:])
        _run(argv, capsys, (key, value), codes=(2,))


@pytest.mark.parametrize("command, key", _CONFIG_KEYS,
                         ids=[f"{c}-{k}" for c, k in _CONFIG_KEYS])
def test_every_config_key_takes_every_value(command, key, corpus, tiny_ckpt,
                                            tmp_path, capsys):
    # each command fails after it has used its settings: gen-data writes
    # its first item onto a directory, train starts a 4x4 net on 32x32
    # images, and the ablations read a missing --eval-data
    config, out, missing = (tmp_path / n for n in ("run.cfg", "out", "none"))
    # gen-data makes one item, unless the key is its count
    base = b"count=1\n" if command == "gen-data" and key != "count" else b""
    if command == "gen-data":
        (out / "clean" / "00000.pgm").mkdir(parents=True)
        argv = ["gen-data", "--out", str(out)]
    elif command == "train":
        argv = ["train", "--stage", "weak", "--data", str(corpus), "--init",
                str(tiny_ckpt), "--out", str(tmp_path / "w.ckpt")]
    else:
        data = "--ckpt" if command == "ablate sampling" else "--train-data"
        source = tiny_ckpt if command == "ablate sampling" else missing
        argv = [*command.split(), data, str(source), "--eval-data",
                str(missing), "--out", str(out)]
    for value in _VALUES:
        config.write_bytes(base + key.encode() + b"=" + value + b"\n")
        # the one value that asks for no work: gen-data writes an empty
        # corpus
        want = 0 if (key, value) == ("count", b"0") else 2
        _run(argv + ["--config", str(config)], capsys, (key, value),
             codes=(want,))
