"""On-disk formats: 16-bit PGM images, "ATDD" checkpoints, dataset
manifests, and key=value config files.

Everything here is bit-exact by construction: checkpoints round-trip
losslessly (save -> load -> save reproduces identical bytes), and PGM
quantization error is at most half of one 16-bit quantum per pixel.

PGMs and manifests are written straight to their paths: a corpus can be
regenerated from its seed.  ``gen-data`` removes the old manifest before
its first image and writes the new one last, so the manifest commits the
corpus, and one cut short has none.  A checkpoint cannot be regenerated,
so :func:`replace_file` swaps it in only once whole.
"""

from __future__ import annotations

import io
import math
import os
import struct
import sys
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor
from .denoiser import DenoiserParams, NetSpec, param_shapes
from .training import Stage, TrainConfig

MAGIC = b"ATDD"
FORMAT_VERSION = 1
PGM_MAXVAL = 65535


class DataError(Exception):
    """Malformed inputs or violated file/data contracts (CLI exit code 2)."""


def replace_file(path, data: bytes) -> None:
    """Write ``data`` to a synced temporary file beside ``path`` (a symlink
    is followed), then rename it over ``path``: a failed write or a crash
    leaves one whole file and no temporary.  Permissions are the default."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):  # the write or the rename failed
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# PGM images (binary P5, 16-bit big-endian, [0,1] mapped linearly)
# ---------------------------------------------------------------------------

def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise DataError(f"write_pgm: need a 2-D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)) or img.min() < 0.0 or img.max() > 1.0:
        raise DataError("write_pgm: pixel values must be finite and in [0, 1]")
    q = np.floor(img * PGM_MAXVAL + 0.5).astype(">u2")  # round half up
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii") + q.tobytes())


def _pgm_token(f, path) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments."""
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise DataError(f"read_pgm: truncated header in {path}")
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float64 [0, 1] image."""
    with open(path, "rb") as f:
        if _pgm_token(f, path) != b"P5":
            raise DataError(f"read_pgm: {path} is not a binary PGM (P5)")
        try:
            w = int(_pgm_token(f, path))
            h = int(_pgm_token(f, path))
            maxval = int(_pgm_token(f, path))
        except ValueError as e:
            raise DataError(f"read_pgm: bad header in {path}: {e}") from None
        if w < 1 or h < 1:
            raise DataError(f"read_pgm: bad size {w}x{h} in {path}")
        if not (0 < maxval < 65536):
            raise DataError(f"read_pgm: bad maxval {maxval} in {path}")
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        n = w * h * dtype.itemsize
        # checked before reading: a header may claim terabytes
        if n > os.fstat(f.fileno()).st_size - f.tell():
            raise DataError(f"read_pgm: truncated pixels in {path} ({w}x{h})")
        raw = f.read(n)
    data = np.frombuffer(raw, dtype=dtype)
    if data.max() > maxval:
        raise DataError(f"read_pgm: {path} holds a sample above its maxval "
                        f"{maxval}")
    return data.reshape(h, w).astype(np.float64) / maxval


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# header key -> (TrainConfig field, type) for the fields a checkpoint header
# holds, in header order.  In a checkpoint ``steps`` counts the steps taken,
# so its key is ``step``.
_META = {("step" if name == "steps" else name):
         (name, Stage if name == "stage" else type(getattr(TrainConfig, name)))
         for name in ("stage", "steps", "gamma", "gamma1", "seed", "t_steps",
                      "beta_start", "beta_end")}


@dataclass
class Checkpoint:
    """A loaded checkpoint.  ``meta`` is the :class:`TrainConfig` read back
    from the header: stage, steps (the steps taken), gamma, gamma1, seed and
    the noise schedule come from the file; batch_size, learning_rate and
    dtype, which the header does not hold, are TrainConfig defaults."""

    student: DenoiserParams
    teacher: DenoiserParams | None
    opt_m: dict[str, np.ndarray] | None
    opt_v: dict[str, np.ndarray] | None
    meta: TrainConfig


def _header_text(spec: NetSpec, meta: TrainConfig, has_teacher: bool,
                 has_opt: bool) -> str:
    kv = {f.name: ",".join(map(str, v)) if isinstance(v, tuple) else v
          for f in fields(NetSpec) for v in [getattr(spec, f.name)]}
    for key, (name, typ) in _META.items():
        v = getattr(meta, name)
        kv[key] = (v.value if typ is Stage
                   else repr(float(v)) if typ is float else v)
    kv["has_teacher"] = int(has_teacher)
    kv["has_opt"] = int(has_opt)
    return "".join(f"{k}={v}\n" for k, v in kv.items())


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DataError(f"checkpoint: non-finite values in tensor {name}")
    nb = name.encode("utf-8")
    f.write(struct.pack("<I", len(nb)))
    f.write(nb)
    f.write(struct.pack("<Q", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<Q", d))
    f.write(arr.astype("<f8", copy=False).tobytes())


def _read(f, n: int, what: str) -> bytes:
    """Exactly ``n`` bytes of ``f``; fewer means the checkpoint was cut."""
    raw = f.read(min(n, sys.maxsize))
    if len(raw) != n:
        raise DataError(f"checkpoint: truncated {what}")
    return raw


def _read_tensor(f) -> tuple[str, np.ndarray]:
    (nlen,) = struct.unpack("<I", _read(f, 4, "tensor table"))
    name = _read(f, nlen, "tensor name").decode("utf-8", "replace")
    (rank,) = struct.unpack("<Q", _read(f, 8, f"rank of tensor {name}"))
    dims = struct.unpack(f"<{rank}Q", _read(f, 8 * rank, f"dims of tensor {name}"))
    payload = _read(f, 8 * math.prod(dims), f"payload for tensor {name}")
    arr = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return name, arr


def save_checkpoint(path, student: DenoiserParams,
                    teacher: DenoiserParams | None = None,
                    opt_m: dict[str, np.ndarray] | None = None,
                    opt_v: dict[str, np.ndarray] | None = None,
                    meta: TrainConfig | None = None) -> None:
    if meta is None:
        meta = TrainConfig(stage=Stage.WEAK_COND, steps=0)
    has_opt = opt_m is not None and opt_v is not None
    order = list(param_shapes(student.spec))
    f = io.BytesIO()  # built whole first: a failure here leaves path as it was
    f.write(MAGIC)
    f.write(struct.pack("<I", FORMAT_VERSION))
    header = _header_text(student.spec, meta, teacher is not None,
                          has_opt).encode("utf-8")
    f.write(struct.pack("<I", len(header)))
    f.write(header)
    for name in order:
        _write_tensor(f, f"student/{name}", student.tensors[name].data)
    if teacher is not None:
        if teacher.spec != student.spec:
            raise DataError("checkpoint: teacher/student descriptor mismatch")
        for name in order:
            _write_tensor(f, f"teacher/{name}", teacher.tensors[name].data)
    if has_opt:
        for name in order:
            _write_tensor(f, f"opt_m/{name}", opt_m[name])
        for name in order:
            _write_tensor(f, f"opt_v/{name}", opt_v[name])
    replace_file(path, f.getvalue())


def _flag(kv: dict[str, str], key: str) -> bool:
    """A header flag, written as 0 or 1; any other value is malformed."""
    if kv[key] not in ("0", "1"):
        raise ValueError(f"{key}={kv[key]} is not 0 or 1")
    return kv[key] == "1"


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    if f.read(4) != MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")
    (version,) = struct.unpack("<I", _read(f, 4, "version"))
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<I", _read(f, 4, "header length"))
    kv = parse_config_text(_read(f, hlen, "header").decode("utf-8", "replace"),
                           f"{path} header")
    try:
        spec = NetSpec(**{
            f.name: (tuple(int(w) for w in kv[f.name].split(","))
                     if isinstance(f.default, tuple) else int(kv[f.name]))
            for f in fields(NetSpec)})
        meta = TrainConfig(**{name: typ(kv[key])
                              for key, (name, typ) in _META.items()})
        has_teacher, has_opt = _flag(kv, "has_teacher"), _flag(kv, "has_opt")
    except (KeyError, ValueError) as e:
        raise DataError(f"{path}: bad header field: {e}") from None

    expected = param_shapes(spec)

    def read_group(prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for name, shape in expected.items():
            got_name, arr = _read_tensor(f)
            if got_name != f"{prefix}/{name}":
                raise DataError(
                    f"checkpoint: expected tensor {prefix}/{name}, got {got_name}")
            if arr.shape != shape:
                raise DataError(
                    f"checkpoint: tensor {got_name} has shape {arr.shape}, "
                    f"descriptor implies {shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: tensor {got_name} holds non-finite "
                                f"values")
            out[name] = arr
        return out

    student = DenoiserParams(spec, {k: Tensor(v, requires_grad=True)
                                    for k, v in read_group("student").items()})
    teacher = None
    if has_teacher:
        teacher = DenoiserParams(spec, {k: Tensor(v, requires_grad=False)
                                        for k, v in read_group("teacher").items()})
    opt_m = read_group("opt_m") if has_opt else None
    opt_v = read_group("opt_v") if has_opt else None
    return Checkpoint(student=student, teacher=teacher,
                      opt_m=opt_m, opt_v=opt_v, meta=meta)


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

def _read_text(path) -> str:
    """UTF-8 text of file ``path``; any other byte is a DataError."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        ln = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path} line {ln}: byte {raw[e.start]:#04x} is not "
                        f"UTF-8 text") from None


def write_manifest(path, rows) -> None:
    """One tab-separated line per item: id, clean, weak, strong, seed,
    written in one call."""
    text = "".join(f"{item_id}\t{clean}\t{weak}\t{strong}\t{seed}\n"
                   for item_id, clean, weak, strong, seed in rows)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def read_manifest(path) -> list[tuple[str, str, str, str, int]]:
    rows = []
    for ln, line in enumerate(_read_text(path).splitlines(), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise DataError(f"{path} line {ln}: expected 5 fields, "
                            f"got {len(parts)}")
        try:
            rows.append((*parts[:4], int(parts[4])))
        except ValueError:
            raise DataError(f"{path} line {ln}: seed {parts[4]!r} is not an "
                            f"integer") from None
    return rows


def load_dataset_dir(dirpath):
    """Load a generated dataset directory into memory.

    Returns (ids, clean, weak, strong) with image stacks shaped (N, 1, S, S)
    in [0, 1].  Holding 4096 32x32 triplets is ~100 MB, well within desk
    scale.
    """
    manifest = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(manifest):
        raise DataError(f"no manifest.txt in {dirpath}")
    rows = read_manifest(manifest)
    if not rows:
        raise DataError(f"no items in {manifest}")
    ids, images, first = [], ([], [], []), None
    for item_id, *paths, _seed in rows:
        ids.append(item_id)
        for stack, rel in zip(images, paths):
            path = os.path.join(dirpath, rel)
            img = read_pgm(path)
            first = first or (path, img.shape)
            if img.shape != first[1]:
                raise DataError(f"{path}: size {img.shape} differs from "
                                f"{first[0]}'s {first[1]}")
            stack.append(img)
    clean, weak, strong = (np.stack(a)[:, None] for a in images)
    return ids, clean, weak, strong


# ---------------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------------

def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment; blank lines ignored; a
    key may appear once.  Messages name the text by ``source``."""
    out, line_of = {}, {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{source} line {ln}: expected key=value, "
                            f"got {raw!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        if not k:
            raise DataError(f"{source} line {ln}: empty key")
        if k in out:
            raise DataError(f"{source} lines {line_of[k]} and {ln} both set "
                            f"{k}")
        out[k], line_of[k] = v, ln
    return out


def read_config_file(path, allowed_keys) -> dict[str, str]:
    """Parse a config file and reject unknown keys (all listed at once)."""
    kv = parse_config_text(_read_text(path), f"config {path}")
    unknown = sorted(set(kv) - set(allowed_keys))
    if unknown:
        raise DataError(
            f"unknown config keys in {path}: {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed_keys))})")
    return kv
