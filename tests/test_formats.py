import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from turbdiff import formats
from turbdiff.denoiser import init_params
from turbdiff.formats import (DataError, load_checkpoint, load_dataset_dir,
                              parse_config_text, read_config_file,
                              read_manifest, read_pgm, save_checkpoint,
                              write_manifest, write_pgm)
from turbdiff.rng import Rng
from turbdiff.training import Stage, TrainConfig

from conftest import tiny_spec


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------

def test_pgm_roundtrip_error_bound(tmp_path):
    img = Rng(0).uniform((32, 32))
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 1.0 / 131070 + 1e-15


def test_pgm_quantized_values_roundtrip_exactly(tmp_path):
    img = np.round(Rng(1).uniform((4, 4)) * 65535) / 65535
    path = tmp_path / "q.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_header_and_endianness(tmp_path):
    img = np.array([[0.0, 1.0]])
    path = tmp_path / "h.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 1\n65535\n")
    assert raw[-4:] == b"\x00\x00\xff\xff"  # big-endian 0 and 65535


def test_pgm_comment_and_8bit_read(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n# another\n2 2\n255\n" +
                     bytes([0, 128, 255, 64]))
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[0, 0] == 0.0 and abs(img[0, 1] - 128 / 255) < 1e-12


def test_pgm_write_validation(tmp_path):
    with pytest.raises(DataError):
        write_pgm(tmp_path / "x.pgm", np.array([[1.5]]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "x.pgm", np.array([[np.nan]]))
    with pytest.raises(DataError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


def test_pgm_read_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(DataError, match="P5"):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n65535\n\x00\x00")
    with pytest.raises(DataError, match="truncated"):
        read_pgm(trunc)
    # a 16-bit file cut at every byte, odd cuts inside the pixels included
    full = tmp_path / "full.pgm"
    write_pgm(full, Rng(2).uniform((3, 3)))
    raw = full.read_bytes()
    cut = tmp_path / "cut.pgm"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(DataError, match="cut.pgm"):
            read_pgm(cut)
    # the last claims 10**20 pixels: the size check comes before any read
    for dims in (b"-3 3", b"3 -3", b"0 3", b"3 0", b"99999999999999999999 1"):
        bad.write_bytes(b"P5\n" + dims + b"\n65535\n" + bytes(18))
        with pytest.raises(DataError, match="bad.pgm"):
            read_pgm(bad)
    # a sample above the header's maxval would read as a value above 1
    bad.write_bytes(b"P5\n2 1\n1000\n\xff\xff\x00\x01")
    with pytest.raises(DataError, match=re.escape(
            f"read_pgm: {bad} holds a sample above its maxval 1000")):
        read_pgm(bad)


@pytest.mark.parametrize("old_shape", [(32, 32), (2, 2)],
                         ids=["over-longer", "over-shorter"])
def test_write_pgm_over_an_existing_file_leaves_exactly_the_new_bytes(
        tmp_path, old_shape):
    img = Rng(3).uniform((5, 4))
    fresh, path = tmp_path / "fresh.pgm", tmp_path / "a.pgm"
    write_pgm(fresh, img)
    write_pgm(path, Rng(4).uniform(old_shape))
    write_pgm(path, img)
    assert path.read_bytes() == fresh.read_bytes()
    assert len(fresh.read_bytes()) == len(b"P5\n4 5\n65535\n") + 2 * 20


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_FIXTURE = (Path(__file__).resolve().parents[1] / "perfbench" / "fixture"
            / "restore.ckpt")


def test_checkpoint_roundtrip_bitwise(tmp_path):
    spec = tiny_spec(0)
    student = init_params(spec, Rng(1))
    teacher = init_params(spec, Rng(2), requires_grad=False)
    opt_m = {k: Rng(3).gauss(v.data.shape) for k, v in student.tensors.items()}
    opt_v = {k: np.abs(Rng(4).gauss(v.data.shape))
             for k, v in student.tensors.items()}
    meta = TrainConfig(stage="strong", steps=123, gamma=0.01,
                       gamma1=0.9909, seed=7, t_steps=1000,
                       beta_start=1e-4, beta_end=0.02)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, student, teacher=teacher, opt_m=opt_m, opt_v=opt_v,
                    meta=meta)
    ck = load_checkpoint(path)
    assert ck.meta == meta
    assert ck.student.spec == spec
    for k, t in student.tensors.items():
        assert np.array_equal(ck.student.tensors[k].data, t.data)
        assert np.array_equal(ck.teacher.tensors[k].data,
                              teacher.tensors[k].data)
        assert np.array_equal(ck.opt_m[k], opt_m[k])
        assert np.array_equal(ck.opt_v[k], opt_v[k])
    # save(load(file)) reproduces the file byte for byte, also for the
    # trained student-only checkpoint the benchmark restores with
    for src in (path, _FIXTURE):
        ck = load_checkpoint(src)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, ck.student, teacher=ck.teacher, opt_m=ck.opt_m,
                        opt_v=ck.opt_v, meta=ck.meta)
        assert again.read_bytes() == src.read_bytes(), src


def test_checkpoint_student_only(tmp_path):
    student = init_params(tiny_spec(1), Rng(5))
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, student)
    ck = load_checkpoint(path)
    assert ck.teacher is None and ck.opt_m is None and ck.opt_v is None
    assert ck.student.tensors.keys() == student.tensors.keys()
    assert ck.meta == TrainConfig(stage=Stage.WEAK_COND, steps=0)
    assert (b"stage=weak\nstep=0\ngamma=0.01\ngamma1=0.9909\nseed=0\n"
            b"t_steps=1000\nbeta_start=0.0001\nbeta_end=0.02\n"
            b"has_teacher=0\nhas_opt=0\n") in path.read_bytes()


def test_checkpoint_header_values_are_validated(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, init_params(tiny_spec(1), Rng(5)))
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    header = raw[12:12 + n]
    bad = tmp_path / "bad.ckpt"
    for old, new in ((b"gamma=0.01", b"gamma=-1.0"),
                     (b"gamma1=0.9909", b"gamma1=1.5"),
                     (b"stage=weak", b"stage=medium"),
                     (b"stage=weak", b"stage=uncond"),
                     (b"step=0", b"step=-1"),
                     (b"seed=0", b"seed=zero"),
                     (b"t_steps=1000", b"t_steps=0"),
                     # a schedule of 10^15 steps would ask for petabytes
                     (b"t_steps=1000", b"t_steps=1000000000000000"),
                     (b"beta_start=0.0001", b"beta_start=0.0"),
                     (b"beta_end=0.02", b"beta_end=2.0"),
                     (b"groups=2", b"groups=0")):
        h = header.replace(old, new, 1)
        assert h != header
        bad.write_bytes(raw[:8] + struct.pack("<I", len(h)) + h
                        + raw[12 + n:])
        with pytest.raises(DataError,
                           match=re.escape(f"{bad}: bad header field")):
            load_checkpoint(bad)


def test_checkpoint_magic_and_corruption(tmp_path):
    student = init_params(tiny_spec(1), Rng(5))
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, student)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == b"ATDD"
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(bad)
    short = tmp_path / "short.ckpt"
    short.write_bytes(bytes(raw[:len(raw) // 2]))
    with pytest.raises(DataError):
        load_checkpoint(short)


def test_checkpoint_rejects_non_finite(tmp_path):
    student = init_params(tiny_spec(1), Rng(5))
    student.tensors["stem.w"].data.flat[0] = np.inf
    with pytest.raises(DataError, match="non-finite"):
        save_checkpoint(tmp_path / "x.ckpt", student)
    # a NaN written into a saved file is refused on load, naming the file
    # and the tensor
    path = tmp_path / "ok.ckpt"
    save_checkpoint(path, init_params(tiny_spec(1), Rng(5)))
    raw = bytearray(path.read_bytes())
    name = b"student/head.b"
    at = raw.index(name) + len(name)
    (rank,) = struct.unpack_from("<Q", raw, at)
    struct.pack_into("<d", raw, at + 8 + 8 * rank, np.nan)
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError,
                       match=r"nan\.ckpt: tensor student/head\.b holds "
                             r"non-finite"):
        load_checkpoint(bad)


def test_a_checkpoint_write_that_fails_leaves_the_old_file(tmp_path,
                                                            monkeypatch):
    path = tmp_path / "w.ckpt"
    save_checkpoint(path, init_params(tiny_spec(2), Rng(0)))
    old = path.read_bytes()
    calls = []
    write_tensor = formats._write_tensor

    def failing(f, name, arr):  # fails halfway through the tensors
        calls.append(name)
        if len(calls) == 5:
            raise OSError("No space left on device")
        write_tensor(f, name, arr)

    monkeypatch.setattr(formats, "_write_tensor", failing)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, init_params(tiny_spec(2), Rng(1)))
    assert len(calls) == 5
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["w.ckpt"]


def test_replace_file_leaves_no_temporary_when_the_rename_fails(tmp_path):
    (tmp_path / "d").mkdir()
    with pytest.raises(OSError):
        formats.replace_file(tmp_path / "d", b"x")
    assert os.listdir(tmp_path) == ["d"]


def test_replace_file_writes_through_a_symlink(tmp_path):
    (tmp_path / "real.csv").write_bytes(b"old")
    (tmp_path / "link.csv").symlink_to("real.csv")
    formats.replace_file(tmp_path / "link.csv", b"new")
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "real.csv").read_bytes() == b"new"


# ---------------------------------------------------------------------------
# manifests and config files
# ---------------------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    rows = [("00000", "clean/00000.pgm", "weak/00000.pgm",
             "strong/00000.pgm", 0),
            ("00001", "clean/00001.pgm", "weak/00001.pgm",
             "strong/00001.pgm", 0)]
    path = tmp_path / "manifest.txt"
    write_manifest(path, rows)
    assert read_manifest(path) == rows


def test_write_manifest_over_a_longer_one(tmp_path):
    rows = [(f"{i:05d}", f"clean/{i:05d}.pgm", f"weak/{i:05d}.pgm",
             f"strong/{i:05d}.pgm", 7) for i in range(3)]
    path = tmp_path / "manifest.txt"
    write_manifest(path, rows)
    write_manifest(path, rows[:1])
    assert path.read_text() == \
        "00000\tclean/00000.pgm\tweak/00000.pgm\tstrong/00000.pgm\t7\n"


def test_manifest_malformed(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("one\ttwo\n")
    with pytest.raises(DataError, match="5 fields"):
        read_manifest(path)
    path.write_text("a\tb\tc\td\t0\na\tb\tc\td\tx\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path} line 2: seed 'x' is not an integer")):
        read_manifest(path)


def test_dataset_images_share_one_size(tmp_path):
    rows = []
    for i, size in enumerate((8, 8, 6)):
        item = f"{i:05d}"
        for sub in ("clean", "weak", "strong"):
            (tmp_path / sub).mkdir(exist_ok=True)
            # the third item's strong image alone is 6x6
            write_pgm(tmp_path / sub / f"{item}.pgm",
                      np.zeros((size, size) if sub == "strong" else (8, 8)))
        rows.append((item, f"clean/{item}.pgm", f"weak/{item}.pgm",
                     f"strong/{item}.pgm", 0))
    write_manifest(tmp_path / "manifest.txt", rows)
    bad = tmp_path / "strong" / "00002.pgm"
    first = tmp_path / "clean" / "00000.pgm"
    with pytest.raises(DataError, match=re.escape(
            f"{bad}: size (6, 6) differs from {first}'s (8, 8)")):
        load_dataset_dir(tmp_path)
    write_manifest(tmp_path / "manifest.txt", rows[:2])
    ids, clean, weak, strong = load_dataset_dir(tmp_path)
    assert ids == ["00000", "00001"] and strong.shape == (2, 1, 8, 8)


def test_config_parsing():
    kv = parse_config_text("a = 1\n# full comment\nb=2  # trailing\n\nc=x=y\n")
    assert kv == {"a": "1", "b": "2", "c": "x=y"}
    with pytest.raises(DataError, match="key=value"):
        parse_config_text("not a pair\n")
    with pytest.raises(DataError, match="empty key"):
        parse_config_text("=3\n")
    with pytest.raises(DataError, match=re.escape(
            "run.cfg lines 2 and 4 both set b")):
        parse_config_text("a=1\nb=2\n\nb = 2\n", "run.cfg")


def test_config_unknown_keys_are_listed(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("count=3\nbogus=1\nworse=2\n")
    with pytest.raises(DataError) as err:
        read_config_file(path, {"count", "seed"})
    assert "bogus" in str(err.value) and "worse" in str(err.value)
    path.write_text("count=3\n")
    assert read_config_file(path, {"count", "seed"}) == {"count": "3"}
    path.write_bytes(b"count=3\n# \xff\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path} line 2: byte 0xff is not UTF-8 text")):
        read_config_file(path, {"count", "seed"})
