import math
import struct

import pytest

from turbdiff.cli import main
from turbdiff.denoiser import NetSpec, init_params
from turbdiff.formats import DataError, load_checkpoint, save_checkpoint
from turbdiff.rng import Rng


def test_gen_data_rejects_negative_count(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--count", "-1"]) == 2
    assert "count must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def _record_starts(raw: bytes) -> list[int]:
    """Byte offset of every tensor record, walked from the file header."""
    pos = 12 + struct.unpack_from("<I", raw, 8)[0]
    starts = []
    while pos < len(raw):
        starts.append(pos)
        (nlen,) = struct.unpack_from("<I", raw, pos)
        (rank,) = struct.unpack_from("<Q", raw, pos + 4 + nlen)
        dims = struct.unpack_from(f"<{rank}Q", raw, pos + 12 + nlen)
        pos += 12 + nlen + 8 * rank + 8 * math.prod(dims)
    assert pos == len(raw)
    return starts


def test_cut_checkpoint_is_a_data_error_and_exits_2(tmp_path, capsys):
    spec = NetSpec(image_size=4, widths=(2, 2, 2, 2), emb_dim=2, groups=1)
    full = tmp_path / "full.ckpt"
    save_checkpoint(full, init_params(spec, Rng(0)))
    raw = full.read_bytes()
    starts = _record_starts(raw)
    # every byte of the file header and of the first record's own header
    # (name, rank, dims), one cut inside its payload, and every boundary
    (nlen,) = struct.unpack_from("<I", raw, starts[0])
    (rank,) = struct.unpack_from("<Q", raw, starts[0] + 4 + nlen)
    first_payload = starts[0] + 12 + nlen + 8 * rank
    cuts = sorted(set(range(first_payload + 1)) | {first_payload + 4}
                  | set(starts))
    cut = tmp_path / "cut.ckpt"
    argv = ["restore", "--ckpt", str(cut), "--in", str(tmp_path / "x.pgm"),
            "--out", str(tmp_path / "out")]
    for n in cuts:
        cut.write_bytes(raw[:n])
        with pytest.raises(DataError):
            load_checkpoint(cut)
        assert main(argv) == 2, n
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (n, err)
