import argparse
import hashlib
import inspect
import math
import os
import re
import struct
import types
from dataclasses import fields

import numpy as np
import pytest

from turbdiff import cli, diffusion, schedule, turbulence
from turbdiff.cli import build_parser, main
from turbdiff.denoiser import NetSpec, init_params
from turbdiff.diffusion import restore, restore_batched, to_signed, to_unit
from turbdiff.domain import check
from turbdiff.formats import (DataError, load_checkpoint, read_pgm,
                              save_checkpoint, write_pgm)
from turbdiff.metrics import psnr
from turbdiff.rng import Rng
from turbdiff.schedule import linear_schedule
from turbdiff.toyfaces import render, sample_spec
from turbdiff.training import TrainConfig
from turbdiff.turbulence import degrade_item, degrade_weak


def test_gen_data_rejects_negative_count(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--count", "-1"]) == 2
    assert "--count/count must be in [0, inf), got -1" in \
        capsys.readouterr().err
    assert not out.exists()


_BAD_GEN_DATA_FLAGS = [
    (("--weak-factor", "3"), "--weak-factor"),
    (("--weak-factor", "0"), "--weak-factor"),
    (("--weak-factor", "-4"), "--weak-factor"),
    (("--elastic-sigma", "-1"), "elastic_sigma"),
    (("--blur-sigma-min", "2", "--blur-sigma-max", "1"),
     "--blur-sigma-min/blur_sigma_min must be <= "
     "--blur-sigma-max/blur_sigma_max, got 2.0 > 1.0"),
    (("--blur-sigma-min", "-1"),
     "--blur-sigma-min/blur_sigma_min must be in [0, inf), got -1.0"),
    (("--noise-std", "nan"), "noise_std"),
    (("--noise-std", "inf"), "noise_std"),
    (("--elastic-sigma", "nan"), "elastic_sigma"),
    (("--elastic-sigma", "inf"), "elastic_sigma"),
    (("--blur-sigma-max", "inf"), "--blur-sigma-max"),
    (("--elastic-alpha", "nan"), "elastic_alpha")]


@pytest.mark.parametrize("flags,named", _BAD_GEN_DATA_FLAGS,
    ids=["weak-factor-3", "weak-factor-0", "weak-factor-negative",
         "elastic-sigma-negative", "blur-sigma-min-above-max",
         "blur-sigma-min-negative", "noise-std-nan", "noise-std-inf",
         "elastic-sigma-nan", "elastic-sigma-inf", "blur-sigma-max-inf",
         "elastic-alpha-nan"])
def test_gen_data_rejects_bad_degradation_flags(tmp_path, capsys, flags,
                                                named):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--count", "2", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["gen-data", "--out", str(tmp_path / "d"),
                         "--count", "-1"]) == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]


# sha256 of every file of ``gen-data --count 8 --seed 3``
_GEN_DATA_SHA256 = {
    "clean/00000.pgm":
        "92dab366cb36ad0f4faa149a853e390ff5389fdb3527e650cfcd938d74093d75",
    "clean/00001.pgm":
        "bd573ccdb84d62351f5a066d408b2d97de26dbe7e36a2fe9d333c3b5694f0125",
    "clean/00002.pgm":
        "ede72d67a55b45ad64bc986ccb565c35461b5ea7e0e1eb60ea2ed19582a3e533",
    "clean/00003.pgm":
        "91955e7df6bb1f7740839a589ad3a387dcfa24d23c9377d9587a44c1adec2608",
    "clean/00004.pgm":
        "c36e6b4734f49bae8a87a14ab146ae9f9586a776178de07338841c54a2692e04",
    "clean/00005.pgm":
        "c88b12962a0e224b0d8d635b3e6f1082e468eb1f093998fb4549e763de3b12a4",
    "clean/00006.pgm":
        "3c3801449dc41ef6199e0a4e5f28515e6e22f33892c378bcf5cd79aa0ac16711",
    "clean/00007.pgm":
        "84781d7b5b4315fe1a22465bb91dc89f7737615c6fe451ab29afcbcb71a0c802",
    "manifest.txt":
        "585f7e8a768c18520f12bd49d74c2bf47e6abc72dce13e7ce1365f58ac9716ea",
    "strong/00000.pgm":
        "3e31717d8ffff7b74e20ebd62c94b8735411c73e36bb889fcab3d8badaf56ddc",
    "strong/00001.pgm":
        "9ea913a44fb27e5e0d969209efd0e44c23f1109e2c4c747648d1000419bd604f",
    "strong/00002.pgm":
        "0fee6716b34fdc54d4812493716c58e64b239a7fb8f97e11229f739db56c73bc",
    "strong/00003.pgm":
        "712cd8597cb4ccac7e5a736108fc06657a302f7a2817ea26152f60f8510d0432",
    "strong/00004.pgm":
        "31c5faff1233bd4b58e359d12da1b327c6d8a006a5d5fd5bd4ce03cd10f59b53",
    "strong/00005.pgm":
        "4132de0966944eb5a7f85cdfc7028dd4455242df6eb019625a770ed64c5d6fdf",
    "strong/00006.pgm":
        "2a5b0f2ba01e0b58c00d8ac31e34678ca148a6130962a327cdf4164f899f0017",
    "strong/00007.pgm":
        "999ea48c9c33420cbe8777ea72d2a8f693465119814d03361b77285f968f9bb8",
    "weak/00000.pgm":
        "726e32dd59acd30ebaca3f417f0420b79a47873be65ed17b6606908558cbbcc1",
    "weak/00001.pgm":
        "5240d984fd08a7c30d5fe22086fb21ee3a340c515cb3b0afa604d910d32f670a",
    "weak/00002.pgm":
        "ad593707c65e2927d392db6fae0a85b1526db8f55af54439d7fe50ee6438e7f2",
    "weak/00003.pgm":
        "52f66ff11ee8021307e68fabf6ac0aa2a9ee9d5de5db4d34c42922ff89066f80",
    "weak/00004.pgm":
        "7383ec15110bfa6dde45a6976ecf4b970820b3c577e122ffbfe889166e0d9930",
    "weak/00005.pgm":
        "503d14ff92c645eabd7fb98b2b27ae1a83070a0687af251a467422d60c472a57",
    "weak/00006.pgm":
        "ad5ee63ddd69edf50844abbdb3d50192231830bcdeaa6d7c96ea942da3f151f5",
    "weak/00007.pgm":
        "2ff01cda7ffe6050457eee161a4cefb3346bfb3f35206d62092bcb623257a05c",
}


def test_gen_data_bytes_are_golden(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--count", "8",
                 "--seed", "3"]) == 0
    got = {p.relative_to(out).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*") if p.is_file()}
    assert got == _GEN_DATA_SHA256


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


@pytest.mark.parametrize("old,new,named", [
    (b"has_opt=0", b"has_opt:0",
     "header line 16: expected key=value, got 'has_opt:0'"),
    (b"has_opt=0", b"seed=0", "header lines 11 and 16 both set seed")],
    ids=["no-equals", "repeated-key"])
def test_malformed_checkpoint_header_exits_2_naming_the_file(
        tmp_path, capsys, old, new, named):
    spec = NetSpec(image_size=4, widths=(2, 2, 2, 2), emb_dim=2, groups=1)
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(ckpt, init_params(spec, Rng(0)))
    raw = ckpt.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    header = raw[12:12 + n].replace(old, new)
    ckpt.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header
                     + raw[12 + n:])
    out = tmp_path / "out"
    assert main(["restore", "--ckpt", str(ckpt), "--in",
                 str(tmp_path / "x.pgm"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {ckpt} {named}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the command-line contract: options, defaults, config files, outputs
# ---------------------------------------------------------------------------

# (option, argparse default, type) of every option of every subcommand;
# the options that a config file may also set default to None here and
# take their defaults from the key tables below
_OPTIONS = {
    "gen-data": [
        ("--out", None, None), ("--config", None, None),
        ("--count", None, "int"), ("--seed", None, "int"),
        ("--elastic-sigma", None, "float"), ("--elastic-alpha", None, "float"),
        ("--blur-sigma-min", None, "float"), ("--blur-sigma-max", None, "float"),
        ("--noise-std", None, "float"), ("--weak-factor", None, "int")],
    "train": [
        ("--stage", None, None), ("--data", None, None), ("--out", None, None),
        ("--init", None, None), ("--teacher", None, None),
        ("--loss-csv", None, None), ("--config", None, None),
        ("--steps", None, "int"), ("--batch-size", None, "int"),
        ("--learning-rate", None, "float"), ("--gamma", None, "float"),
        ("--gamma1", None, "float"), ("--seed", None, "int"),
        ("--t-steps", None, "int"), ("--beta-start", None, "float"),
        ("--beta-end", None, "float"), ("--dtype", None, "str"),
        ("--checkpoint-every", None, "int")],
    "restore": [
        ("--ckpt", None, None), ("--in", None, None), ("--out", None, None),
        ("--t1", 30, "int"), ("--steps", 60, "int"),
        ("--snapshots", 0, "int"), ("--seed", 0, "int"),
        ("--batch", 64, "int")],
    "eval": [("--pred", None, None), ("--ref", None, None),
             ("--out", None, None)],
    "ablate pt": [
        ("--train-data", None, None), ("--eval-data", None, None),
        ("--out", None, None), ("--config", None, None),
        ("--steps-weak", None, "int"), ("--steps-strong", None, "int"),
        ("--batch-size", None, "int"), ("--learning-rate", None, "float"),
        ("--gamma", None, "float"), ("--gamma1", None, "float"),
        ("--seed", None, "int"), ("--t-steps", None, "int"),
        ("--beta-start", None, "float"), ("--beta-end", None, "float"),
        ("--dtype", None, "str"), ("--steps", None, "int"),
        ("--t1", None, "int")],
    "ablate sampling": [
        ("--ckpt", None, None), ("--eval-data", None, None),
        ("--out", None, None), ("--config", None, None),
        ("--steps", None, "int"), ("--t1-list", None, "str"),
        ("--seed", None, "int")],
}

_TRAIN_DEFAULTS = {
    "batch_size": (int, 8), "learning_rate": (float, 2e-4),
    "gamma": (float, 0.01),
    "gamma1": (float, 0.9909), "seed": (int, 0), "t_steps": (int, 1000),
    "beta_start": (float, 1e-4), "beta_end": (float, 0.02),
    "dtype": (str, "float32")}

# key -> (type, default) of the settings a flag or a config file gives
_KEY_DEFAULTS = {
    "gen-data": {
        "count": (int, 4096), "seed": (int, 0),
        "elastic_sigma": (float, 4.0), "elastic_alpha": (float, 2.0),
        "blur_sigma_min": (float, 0.5), "blur_sigma_max": (float, 1.5),
        "noise_std": (float, 1e-4), "weak_factor": (int, 4)},
    "train": {"steps": (int, 2500), **_TRAIN_DEFAULTS,
              "checkpoint_every": (int, 0)},
    "ablate pt": {"steps_weak": (int, 2500), "steps_strong": (int, 2500),
                  **_TRAIN_DEFAULTS, "steps": (int, 60), "t1": (int, 30)},
    "ablate sampling": {"steps": (int, 60), "t1_list": (str, "10,20,30,45,60"),
                        "seed": (int, 0)},
}


def _commands(parser, path=()):
    """(name, parser) of each command that runs; a nested command is named
    by its path, such as "ablate pt"."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for a in subs:
        for name, p in a.choices.items():
            yield from _commands(p, (*path, name))


def test_parser_options_and_defaults_are_golden():
    got = {name: [(a.option_strings[0], a.default,
                   getattr(a.type, "__name__", None))
                   for a in p._actions if a.option_strings[0] != "-h"]
           for name, p in _commands(build_parser())}
    assert got == _OPTIONS
    tables = {"gen-data": cli._GEN_KEYS, "train": cli._TRAIN_KEYS,
              "ablate pt": cli._PT_KEYS, "ablate sampling": cli._SAMPLING_KEYS}
    for name, table in tables.items():
        assert [(k, entry[:2]) for k, entry in table.items()] == \
            list(_KEY_DEFAULTS[name].items()), name
        for typ, default, _ in table.values():
            assert type(default) is typ


def test_library_defaults_are_the_table_defaults():
    # the library functions perfbench calls directly keep their own
    # signatures; their defaults and domains are the CLI table's
    def param(fn, name):
        return inspect.signature(fn).parameters[name].default

    train = cli._TRAIN_KEYS
    for name in ("beta_start", "beta_end"):
        assert param(linear_schedule, name) == train[name][1], name
        assert schedule.BETA_DOMAIN == train[name][2], name
    assert (schedule.T_STEPS, schedule.T_DOMAIN) == train["t_steps"][1:]
    weak = cli._GEN_KEYS["weak_factor"]
    assert param(degrade_weak, "factor") == weak[1]
    assert param(degrade_item, "weak_factor") == weak[1]
    assert turbulence.WEAK_FACTOR_DOMAIN == weak[2]
    assert param(restore_batched, "batch_size") == cli._RESTORE_KEYS["batch"][1]
    # and their guards reject what the table's domains reject
    for bad in ((0,), (10, 0.0, 0.01), (10, 0.01, 1.0), (10, 0.02, 0.01)):
        with pytest.raises(ValueError):
            linear_schedule(*bad)
    with pytest.raises(ValueError, match=re.escape("[1, inf)")):
        degrade_weak(np.zeros((8, 8)), 0)


def test_every_config_field_is_its_own_setting():
    # a field's name is its flag and config key, in every table that sets
    # it, with the field's type, default and domain; ablate pt's steps is
    # the sampler's K
    for cls, table, skip in ((turbulence.DegradationConfig, cli._GEN_KEYS, ()),
                             (TrainConfig, cli._TRAIN_KEYS, ()),
                             (TrainConfig, cli._PT_KEYS, ("steps",))):
        for f in fields(cls):
            if "domain" in f.metadata and f.name not in skip:
                assert f.name in table, (cls.__name__, f.name)
                typ, default, domain = table[f.name]
                assert (typ.__name__, default, domain) == \
                    (f.type, f.default, f.metadata["domain"]), f.name


def _header(path) -> dict[str, str]:
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 8)
    return dict(line.split("=", 1)
                for line in raw[12:12 + n].decode().splitlines())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(["gen-data", "--out", str(out), "--count", "16"]) == 0
    return out


@pytest.fixture(scope="module")
def weak_ckpt(corpus):
    out = corpus.parent / "weak.ckpt"
    assert main(["train", "--stage", "weak", "--data", str(corpus),
                 "--out", str(out), "--steps", "2", "--batch-size", "2"]) == 0
    return out


def _train_weak(corpus, out, *extra):
    return main(["train", "--stage", "weak", "--data", str(corpus),
                 "--out", str(out), *extra])


def test_train_header_holds_the_run_settings(weak_ckpt):
    h = _header(weak_ckpt)
    assert (h["stage"], h["step"], h["seed"], h["gamma"]) == \
        ("weak", "2", "0", "0.01")
    assert (h["gamma1"], h["t_steps"], h["beta_start"], h["beta_end"]) == \
        ("0.9909", "1000", "0.0001", "0.02")
    assert (h["has_teacher"], h["has_opt"]) == ("0", "1")


def test_train_config_file_equals_flags(corpus, weak_ckpt, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# same run as the flags\nsteps = 2\nbatch_size=2\n")
    out = tmp_path / "from_file.ckpt"
    assert _train_weak(corpus, out, "--config", str(cfg)) == 0
    assert out.read_bytes() == weak_ckpt.read_bytes()


def test_train_flag_overrides_config_file(corpus, weak_ckpt, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=1\nbatch_size=3\nseed=5\nlearning_rate=0.1\n")
    out = tmp_path / "override.ckpt"
    assert _train_weak(corpus, out, "--config", str(cfg), "--steps", "2",
                       "--batch-size", "2", "--seed", "0",
                       "--learning-rate", "2e-4") == 0
    assert out.read_bytes() == weak_ckpt.read_bytes()


def test_train_unknown_config_key_exits_2_listing_allowed(corpus, tmp_path,
                                                          capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=2\nlr=0.1\n")
    out = tmp_path / "x.ckpt"
    assert _train_weak(corpus, out, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert f"unknown config keys in {cfg}: lr (" in err
    assert ("(allowed: batch_size, beta_end, beta_start, checkpoint_every, "
            "dtype, gamma, gamma1, learning_rate, seed, steps, "
            "t_steps)") in err
    assert not out.exists()


_BAD_TRAIN_FLAGS = [
    (("--checkpoint-every", "-1"), "--checkpoint-every/checkpoint_every"),
    (("--learning-rate", "-1"), "--learning-rate/learning_rate"),
    (("--learning-rate", "0"), "--learning-rate/learning_rate"),
    (("--learning-rate", "nan"), "--learning-rate/learning_rate"),
    (("--gamma", "nan"), "gamma"),
    (("--gamma", "-0.5"), "gamma")]


@pytest.mark.parametrize("flags,named", _BAD_TRAIN_FLAGS,
    ids=["checkpoint-every-negative", "lr-negative", "lr-zero", "lr-nan",
         "gamma-nan", "gamma-negative"])
def test_train_rejects_bad_flags_before_training(corpus, tmp_path, capsys,
                                                 flags, named):
    out = tmp_path / "x.ckpt"
    assert _train_weak(corpus, out, "--steps", "2", "--batch-size", "2",
                       *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_train_takes_no_lr_flag(corpus, tmp_path, capsys):
    # the learning rate is --learning-rate, the TrainConfig field's name
    out = tmp_path / "x.ckpt"
    assert _train_weak(corpus, out, "--steps", "1", "--lr", "1e-3") == 1
    assert "error: unrecognized arguments: --lr 1e-3" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--loss-csv"])
@pytest.mark.parametrize("bad,why", [
    ("missing/file", ": its directory does not exist"),
    ("dir", " is a directory")], ids=["missing-dir", "dir"])
def test_train_checks_its_output_paths_before_training(
        corpus, tmp_path, capsys, flag, bad, why):
    (tmp_path / "dir").mkdir()
    paths = {"--out": tmp_path / "w.ckpt", "--loss-csv": tmp_path / "l.csv"}
    paths[flag] = tmp_path / bad
    assert main(["train", "--stage", "weak", "--data", str(corpus),
                 "--steps", "3", "--batch-size", "2",
                 *(x for kv in paths.items() for x in map(str, kv))]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} {paths[flag]}{why}\n"
    assert "step" not in captured.out
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_train_has_no_uncond_stage(corpus, tmp_path):
    # a usage error; a checkpoint header saying stage=uncond is a data error
    # (test_formats.py)
    out = tmp_path / "u.ckpt"
    assert main(["train", "--stage", "uncond", "--data", str(corpus),
                 "--out", str(out), "--steps", "1"]) == 1
    assert not out.exists()


def test_train_strong_from_weak_checkpoint(corpus, weak_ckpt, tmp_path):
    out = tmp_path / "strong.ckpt"
    assert main(["train", "--stage", "strong", "--data", str(corpus),
                 "--teacher", str(weak_ckpt), "--out", str(out),
                 "--steps", "2", "--batch-size", "2", "--seed", "1"]) == 0
    h = _header(out)
    assert (h["stage"], h["step"], h["seed"]) == ("strong", "2", "1")
    assert (h["has_teacher"], h["has_opt"]) == ("1", "1")
    ck = load_checkpoint(out)
    assert ck.student.spec == load_checkpoint(weak_ckpt).student.spec


def test_ablate_sampling_writes_both_csvs(corpus, weak_ckpt, tmp_path,
                                          capsys):
    # the full chain t1 = K is a row whether or not the list holds K
    for i, t1_list in enumerate(["1,2", "1"]):
        out = tmp_path / f"abl{i}"
        assert main(["ablate", "sampling", "--ckpt", str(weak_ckpt),
                     "--eval-data", str(corpus), "--out", str(out),
                     "--steps", "2", "--t1-list", t1_list]) == 0
        rows = (out / "sampling_ablation.csv").read_text().splitlines()
        assert rows[0].startswith("variant,t1,nfe,")
        assert [r.split(",")[:3] for r in rows[1:]] == \
            [["t1=1", "1", "1"], ["t1=2", "2", "2"]]
        items = (out / "sampling_per_item.csv").read_text().splitlines()
        assert items[0] == "item_id,dist_t1=1,dist_t1=2"
        assert len(items) == 17
    # a malformed, out-of-range or repeating list is rejected before --out
    # exists
    for i, bad in enumerate(["1,x", "1,3", "0", ",", "2,,1", "1,1"]):
        out = tmp_path / f"bad{i}"
        capsys.readouterr()
        assert main(["ablate", "sampling", "--ckpt", str(weak_ckpt),
                     "--eval-data", str(corpus), "--out", str(out),
                     "--steps", "2", "--t1-list", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--t1-list" in err
        assert not out.exists()


def _nan_denoiser(monkeypatch):
    """Make every command's denoiser predict NaN: a numeric blow-up."""
    monkeypatch.setattr(cli, "make_denoise_fn",
                        lambda params: lambda y, x, t: np.full_like(y, np.nan))


def test_ablate_sampling_blow_up_exits_3_writing_no_csv(
        corpus, weak_ckpt, tmp_path, capsys, monkeypatch):
    _nan_denoiser(monkeypatch)
    out = tmp_path / "abl"
    assert main(["ablate", "sampling", "--ckpt", str(weak_ckpt),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--steps", "2", "--t1-list", "1"]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: restore: items [0, 1, ")
    assert list(out.iterdir()) == []


def test_ablate_pt_checkpoint_headers(corpus, tmp_path):
    out = tmp_path / "pt"
    assert main(["ablate", "pt", "--train-data", str(corpus),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--steps-weak", "1", "--steps-strong", "2",
                 "--batch-size", "2", "--seed", "4", "--steps", "2",
                 "--t1", "1"]) == 0
    pt, direct = _header(out / "progressive.ckpt"), _header(out / "direct.ckpt")
    assert (pt["stage"], pt["step"], pt["seed"], pt["has_teacher"]) == \
        ("strong", "2", "4", "1")
    assert (direct["stage"], direct["step"], direct["seed"],
            direct["has_teacher"]) == ("weak", "3", "4", "0")
    assert pt["has_opt"] == direct["has_opt"] == "0"
    rows = (out / "pt_ablation.csv").read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == \
        [["progressive", "3"], ["direct", "3"]]


def test_ablate_sampling_rejects_a_training_key_in_its_config(
        corpus, weak_ckpt, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=2\nlearning_rate=0.1\n")
    out = tmp_path / "abl"
    assert main(["ablate", "sampling", "--ckpt", str(weak_ckpt),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--t1-list", "1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"unknown config keys in {cfg}: learning_rate (" in err
    assert "(allowed: seed, steps, t1_list)" in err
    assert not out.exists()


def test_config_file_may_set_a_key_once(corpus, weak_ckpt, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=2\n# K\nsteps=3\n")
    out = tmp_path / "abl"
    assert main(["ablate", "sampling", "--ckpt", str(weak_ckpt),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--t1-list", "1", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"error: config {cfg} lines 1 and 3 both set steps\n"
    assert not out.exists()


_BAD_PT_T1 = ["0", "6"]


@pytest.mark.parametrize("t1", _BAD_PT_T1)
def test_ablate_pt_rejects_t1_outside_steps(corpus, tmp_path, capsys, t1):
    out = tmp_path / "pt"
    assert main(["ablate", "pt", "--train-data", str(corpus),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--steps-weak", "1", "--steps-strong", "1",
                 "--batch-size", "2", "--steps", "5", "--t1", t1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--t1" in err
    assert not out.exists()


_BAD_PT_STEPS = [
    (("--steps-weak", "-1", "--steps-strong", "1"), "--steps-weak/steps_weak"),
    (("--steps-weak", "3", "--steps-strong", "-1"),
     "--steps-strong/steps_strong")]


@pytest.mark.parametrize("flags,named", _BAD_PT_STEPS,
    ids=["steps-weak-negative", "steps-strong-negative"])
def test_ablate_pt_rejects_stage_steps_before_training(corpus, tmp_path,
                                                       capsys, flags, named):
    out = tmp_path / "pt"
    assert main(["ablate", "pt", "--train-data", str(corpus),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--batch-size", "2", "--steps", "2", "--t1", "1",
                 *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "weak stage" not in captured.out
    assert not out.exists()


@pytest.fixture(scope="module")
def empty_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "empty"
    assert main(["gen-data", "--out", str(out), "--count", "0"]) == 0
    return out


@pytest.mark.parametrize("command", ["train", "ablate-sampling",
                                     "ablate-pt"])
def test_empty_dataset_exits_2_naming_it(corpus, weak_ckpt, empty_corpus,
                                         tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--stage", "weak", "--data", str(empty_corpus),
                  "--steps", "1"],
        "ablate-sampling": ["ablate", "sampling",
                            "--ckpt", str(weak_ckpt),
                            "--eval-data", str(empty_corpus), "--steps", "2",
                            "--t1-list", "1"],
        "ablate-pt": ["ablate", "pt", "--train-data",
                      str(empty_corpus), "--eval-data", str(corpus),
                      "--steps-weak", "1", "--steps-strong", "1",
                      "--batch-size", "2", "--steps", "2", "--t1", "1"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        f"error: no items in {empty_corpus / 'manifest.txt'}\n"
    assert "weak stage" not in captured.out
    assert not out.exists()


def _restore_tiny(tmp_path, *flags) -> tuple[int, object]:
    """``restore`` of one 4x4 image on a fresh 4x4 checkpoint, and --out."""
    spec = NetSpec(image_size=4, widths=(2, 2, 2, 2), emb_dim=2, groups=1)
    ckpt = tmp_path / "tiny.ckpt"
    save_checkpoint(ckpt, init_params(spec, Rng(0)))
    img = tmp_path / "x.pgm"
    write_pgm(img, Rng(1).uniform((4, 4)))
    out = tmp_path / "out"
    return main(["restore", "--ckpt", str(ckpt), "--in", str(img),
                 "--out", str(out), *flags]), out


_BAD_BATCH = ["-3", "0"]


@pytest.mark.parametrize("batch", _BAD_BATCH)
def test_restore_rejects_non_positive_batch(tmp_path, capsys, batch):
    code, out = _restore_tiny(tmp_path, "--batch", batch)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--batch" in err
    assert not out.exists()


_BAD_SAMPLER_FLAGS = [
    (("--t1", "0"), "--t1"), (("--t1", "-2"), "--t1"),
    (("--steps", "5", "--t1", "6"), "--t1"),
    (("--snapshots", "-1"), "--snapshots")]


@pytest.mark.parametrize("flags,named", _BAD_SAMPLER_FLAGS,
    ids=["t1-zero", "t1-negative", "t1-over-steps", "snapshots-negative"])
def test_restore_rejects_bad_sampler_flags(tmp_path, capsys, flags, named):
    code, out = _restore_tiny(tmp_path, *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_restore_takes_no_noise_start_flag(tmp_path, capsys):
    # the full chain is --t1 equal to --steps
    code, out = _restore_tiny(tmp_path, "--steps", "5", "--t1", "5",
                              "--noise-start")
    assert code == 1
    assert "error: unrecognized arguments: --noise-start" in \
        capsys.readouterr().err
    assert not out.exists()


def test_restore_blow_up_exits_3_naming_the_item(tmp_path, capsys,
                                                  monkeypatch):
    _nan_denoiser(monkeypatch)
    code, out = _restore_tiny(tmp_path, "--steps", "5", "--t1", "3")
    assert code == 3
    assert capsys.readouterr().err == ("numeric failure: restore: items [0] "
                                       "are not finite after 3 reverse steps\n")
    assert not (out / "x.pgm").exists()


def test_restore_snapshots(tmp_path):
    code, out = _restore_tiny(tmp_path, "--steps", "5", "--t1", "3",
                              "--snapshots", "2")
    assert code == 0
    # respaced steps 3 and 1 of 5 (t = 500 and 1): the first and the last
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == \
        ["x_t0001.pgm", "x_t0500.pgm"]



def _restore_three(corpus, ckpt, out, *flags):
    names = [f"0000{i}" for i in range(3)]
    return main(["restore", "--ckpt", str(ckpt), "--out", str(out),
                 "--in", *(str(corpus / "strong" / f"{n}.pgm") for n in names),
                 "--steps", "3", "--t1", "2", *flags])


def test_restore_trace_times_each_chunk(corpus, weak_ckpt, tmp_path,
                                        monkeypatch):
    # a clock that the chunk of 2 advances by 3 s and the chunk of 1 by 1 s
    now, cost = [0.0], [3.0, 1.0]
    monkeypatch.setattr(cli, "time",
                        types.SimpleNamespace(perf_counter=lambda: now[0]))

    def timed_restore(x, *args, **kwargs):
        now[0] += cost.pop(0)
        return restore(x, *args, **kwargs)

    monkeypatch.setattr(cli, "restore", timed_restore)
    out = tmp_path / "restored"
    assert _restore_three(corpus, weak_ckpt, out, "--batch", "2") == 0
    assert (out / "trace.csv").read_text().splitlines() == [
        "item_id,nfe,seconds", "00000,2,1.5000", "00001,2,1.5000",
        "00002,2,1.0000"]


def test_restore_snapshots_and_chunks_keep_item_streams(corpus, weak_ckpt,
                                                         tmp_path):
    runs = []
    for i, flags in enumerate((("--batch", "2"),
                               ("--batch", "2", "--snapshots", "1"),
                               ("--batch", "1"))):
        out = tmp_path / f"run{i}"
        assert _restore_three(corpus, weak_ckpt, out, *flags) == 0
        runs.append([read_pgm(out / f"0000{n}.pgm") for n in range(3)])
    # snapshots of every item of every chunk: respaced steps 2 and 1 of 3
    assert sorted(p.name for p in (tmp_path / "run1" / "snapshots").iterdir()) \
        == [f"0000{n}_t{t:04d}.pgm" for n in range(3) for t in (1, 500)]
    plain, snap, alone = runs
    for n in range(3):
        assert np.array_equal(plain[n], snap[n])
        assert np.max(np.abs(plain[n] - alone[n])) <= 1.0 / 65535


def test_restore_rejects_inputs_sharing_a_name(corpus, weak_ckpt, tmp_path,
                                               capsys):
    # a/00000.pgm and b/00000.pgm would both be written as out/00000.pgm
    other = tmp_path / "other"
    other.mkdir()
    twin = other / "00000.pgm"
    twin.write_bytes((corpus / "clean" / "00000.pgm").read_bytes())
    first = corpus / "strong" / "00000.pgm"
    out = tmp_path / "restored"
    assert main(["restore", "--ckpt", str(weak_ckpt), "--out", str(out),
                 "--in", str(first), str(corpus / "strong" / "00001.pgm"),
                 str(twin), "--steps", "3", "--t1", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{first} and {twin}" in err
    assert not out.exists()


def test_restore_then_eval(corpus, weak_ckpt, tmp_path, capsys):
    names = [f"0000{i}" for i in range(3)]
    out = tmp_path / "restored"
    assert main(["restore", "--ckpt", str(weak_ckpt), "--out", str(out),
                 "--in", *(str(corpus / "strong" / f"{n}.pgm") for n in names),
                 "--steps", "3", "--t1", "2", "--batch", "2"]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "item_id,nfe,seconds"
    assert [r.split(",")[:2] for r in trace[1:]] == [[n, "2"] for n in names]
    assert sorted(p.name for p in out.glob("*.pgm")) == \
        [f"{n}.pgm" for n in names]
    report = tmp_path / "eval.csv"
    # 16 references for 3 predictions: the unmatched items are named
    assert main(["eval", "--pred", str(out), "--ref", str(corpus / "clean"),
                 "--out", str(report)]) == 2
    assert "00003" in capsys.readouterr().err
    ref = tmp_path / "ref"
    ref.mkdir()
    for n in names:
        (ref / f"{n}.pgm").write_bytes((corpus / "clean" / f"{n}.pgm")
                                       .read_bytes())
    assert main(["eval", "--pred", str(out), "--ref", str(ref),
                 "--out", str(report)]) == 0
    rows = report.read_text().splitlines()
    assert rows[0] == "item_id,psnr,ssim"
    assert [r.split(",")[0] for r in rows[1:]] == names + ["mean"]


def test_eval_names_the_item_whose_sizes_differ(corpus, tmp_path, capsys):
    pred, ref = tmp_path / "pred", tmp_path / "ref"
    pred.mkdir()
    ref.mkdir()
    for n in ("00000", "00001"):
        clean = read_pgm(corpus / "clean" / f"{n}.pgm")
        write_pgm(ref / f"{n}.pgm", clean)
        write_pgm(pred / f"{n}.pgm", clean[::2, ::2] if n == "00001" else clean)
    report = tmp_path / "eval.csv"
    assert main(["eval", "--pred", str(pred), "--ref", str(ref),
                 "--out", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: item 00001: {pred / '00001.pgm'} is (16, 16) but "
        f"{ref / '00001.pgm'} is (32, 32)\n")
    assert not report.exists()


# the benchmark's trained fixture and held-out corpus seed, far from the
# seed (7) of the corpus the fixture was trained on
FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "fixture", "restore.ckpt")
TEST_SEED = 1_000_003


def test_restore_restores_at_the_cli_defaults(tmp_path):
    # a quality floor: the trained fixture, restored at every sampler
    # default, must beat its strongly degraded input.  Held-out faces gain
    # +1.25 to +1.34 dB on average for seeds 0-2
    data, out = tmp_path / "data", tmp_path / "restored"
    assert main(["gen-data", "--out", str(data), "--count", "8",
                 "--seed", str(TEST_SEED)]) == 0
    names = [f"{i:05d}" for i in range(8)]
    assert main(["restore", "--ckpt", FIXTURE, "--out", str(out), "--in",
                 *(str(data / "strong" / f"{n}.pgm") for n in names)]) == 0
    gains = [psnr(read_pgm(out / f"{n}.pgm"), clean)
             - psnr(read_pgm(data / "strong" / f"{n}.pgm"), clean)
             for n in names
             for clean in [read_pgm(data / "clean" / f"{n}.pgm")]]
    assert np.mean(gains) > 0.5, gains


def test_full_chain_is_the_start_from_noise(monkeypatch):
    # at t1 = K the start keeps x at weight sqrt(abar_K) = 0.00635, so the
    # chain from pure noise, the same draw with q_sample patched to return
    # the noise alone, restores nearly the same images.  Measured with the
    # fixture at K = 10 on 4 held-out faces: max 3.1e-3, mean 4.9e-4
    cfg = turbulence.DegradationConfig(seed=TEST_SEED)
    base = Rng(TEST_SEED)
    x = np.stack([
        degrade_item(render(sample_spec(base.stream(i), seed_tag=i)), cfg,
                     i)[1] for i in range(4)])[:, None]
    ckpt = load_checkpoint(FIXTURE)
    fn, sched = cli._checkpoint_sampler(ckpt.student, ckpt.meta, 10)
    full, _ = restore(to_signed(x), fn, sched, 10, Rng(0))
    monkeypatch.setattr(diffusion, "q_sample", lambda y0, t, eps, s: eps)
    noise, _ = restore(to_signed(x), fn, sched, 10, Rng(0))
    diff = np.abs(to_unit(full) - to_unit(noise))
    assert 0 < np.mean(diff) < 1e-3 and np.max(diff) < 1e-2


@pytest.fixture(scope="module")
def blown_up_fixture(tmp_path_factory):
    """The fixture with its kernels scaled by 1e12: every float overflows
    within a few layers, with no patched denoiser."""
    ckpt = load_checkpoint(FIXTURE)
    for name, t in ckpt.student.tensors.items():
        if name.endswith(".w"):
            t.data = t.data * 1e12
    path = tmp_path_factory.mktemp("cli") / "blown_up.ckpt"
    save_checkpoint(path, ckpt.student, meta=ckpt.meta)
    return path


def test_a_blown_up_restore_exits_3_with_its_message_alone(
        corpus, blown_up_fixture, tmp_path, capsys):
    # numpy's overflow warnings are errors here, as under python -W error
    out = tmp_path / "restored"
    assert main(["restore", "--ckpt", str(blown_up_fixture), "--out",
                 str(out), "--in", str(corpus / "strong" / "00000.pgm"),
                 "--steps", "5", "--t1", "3"]) == 3
    assert capsys.readouterr().err == ("numeric failure: restore: items [0] "
                                       "are not finite after 3 reverse steps\n")
    assert not (out / "00000.pgm").exists()


def test_a_blown_up_training_step_exits_3_with_its_message_alone(
        corpus, blown_up_fixture, tmp_path, capsys):
    out = tmp_path / "x.ckpt"
    assert main(["train", "--stage", "strong", "--data", str(corpus),
                 "--out", str(out), "--init", str(blown_up_fixture),
                 "--teacher", FIXTURE, "--steps", "1",
                 "--batch-size", "2"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"numeric failure: non-finite gradient for \S+ at "
                        r"step 0\n", err), err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A 3-item dataset of 16x16 images: too small for the 32x32 network."""
    out = tmp_path_factory.mktemp("cli") / "small"
    assert main(["gen-data", "--out", str(out), "--count", "3"]) == 0
    for p in out.rglob("*.pgm"):
        write_pgm(p, read_pgm(p)[::2, ::2])
    return out


@pytest.mark.parametrize("command", ["train", "ablate-sampling", "ablate-pt",
                                     "ablate-pt-eval"])
def test_dataset_size_must_match_the_network(corpus, weak_ckpt, small_corpus,
                                             tmp_path, capsys, command):
    out = tmp_path / "out"
    flag, argv = {
        "train": ("--data", ["train", "--stage", "weak", "--data",
                             str(small_corpus), "--steps", "1"]),
        "ablate-sampling": ("--eval-data", [
            "ablate", "sampling", "--ckpt", str(weak_ckpt),
            "--eval-data", str(small_corpus), "--steps", "2",
            "--t1-list", "1"]),
        "ablate-pt": ("--train-data", [
            "ablate", "pt", "--train-data", str(small_corpus),
            "--eval-data", str(corpus), "--steps-weak", "1",
            "--steps-strong", "1", "--batch-size", "2", "--steps", "2",
            "--t1", "1"]),
        "ablate-pt-eval": ("--eval-data", [
            "ablate", "pt", "--train-data", str(corpus),
            "--eval-data", str(small_corpus), "--steps-weak", "1",
            "--steps-strong", "1", "--batch-size", "2", "--steps", "2",
            "--t1", "1"]),
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {flag} {small_corpus}: images are "
                            f"16x16, the network takes 32x32\n")
    assert "weak stage" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["restore", "ablate-sampling",
                                     "ablate-pt"])
def test_sampler_steps_at_most_the_schedule_length(corpus, weak_ckpt,
                                                    tmp_path, capsys,
                                                    command):
    out = tmp_path / "out"
    # K <= T, the checkpoint's t_steps, or the config's for ablate pt
    argv, named = {
        "restore": (["restore", "--ckpt", str(weak_ckpt), "--in",
                     str(corpus / "strong" / "00000.pgm")], "--steps"),
        "ablate-sampling": (["ablate", "sampling", "--ckpt",
                             str(weak_ckpt), "--eval-data", str(corpus),
                             "--t1-list", "5"], "--steps/steps"),
        "ablate-pt": (["ablate", "pt", "--train-data", str(corpus),
                       "--eval-data", str(corpus), "--steps-weak", "1",
                       "--steps-strong", "1", "--batch-size", "2",
                       "--t-steps", "500", "--t1", "5"], "--steps/steps"),
    }[command]
    T = 500 if command == "ablate-pt" else 1000
    assert main([*argv, "--steps", str(T + 1), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {named} must be in [1, {T}], got {T + 1}\n"
    assert "weak stage" not in captured.out
    assert not out.exists()


# ---------------------------------------------------------------------------
# domains: every setting's valid values, from the commands' tables
# ---------------------------------------------------------------------------

_TABLES = {"gen-data": cli._GEN_KEYS, "train": cli._TRAIN_KEYS,
           "restore": cli._RESTORE_KEYS, "ablate pt": cli._PT_KEYS,
           "ablate sampling": cli._SAMPLING_KEYS}

# the value-taking options that name a path or a choice: no domain
_NO_DOMAIN = {"--out", "--data", "--ckpt", "--in", "--config", "--init",
              "--teacher", "--loss-csv", "--train-data", "--eval-data",
              "--pred", "--ref", "--stage"}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _outside(key: str, typ, domain) -> list[str]:
    """Those of -1, 0, max + 1 and, for a float setting, NaN and +-inf that
    lie outside ``domain``."""
    values = ["-1", "0"]
    hi = domain[1:-1].split(",")[-1]
    if domain[0] != "{" and math.isfinite(float(hi)):
        values.append(str(typ(hi) + 1))
    if typ is float:
        values += ["nan", "inf", "-inf"]

    def inside(s):
        try:
            check(key, int(s) if key == "t1_list" else typ(s), domain)
        except ValueError:
            return False
        return True
    return [s for s in values if not inside(s)]


# (command, flag, value) cases that the bad-flag tests above already run
_COVERED = {
    (command, flag, value)
    for command, cases in (("gen-data", _BAD_GEN_DATA_FLAGS),
                           ("train", _BAD_TRAIN_FLAGS),
                           ("restore", _BAD_SAMPLER_FLAGS),
                           ("ablate pt", _BAD_PT_STEPS))
    for flags, _ in cases for flag, value in zip(flags[::2], flags[1::2])}
_COVERED |= {("gen-data", "--count", "-1")}
_COVERED |= {("restore", "--batch", v) for v in _BAD_BATCH}
_COVERED |= {("ablate pt", "--t1", v) for v in _BAD_PT_T1}

_BOUNDARY = [(command, _flag(key), value)
             for command, table in _TABLES.items()
             for key, (typ, _, domain) in table.items()
             for value in _outside(key, typ, domain)
             if (command, _flag(key), value) not in _COVERED]


def _valid_argv(command, corpus, ckpt) -> list[str]:
    return {
        "gen-data": ["gen-data", "--count", "2"],
        "train": ["train", "--stage", "weak", "--data", str(corpus),
                  "--steps", "1", "--batch-size", "2"],
        "restore": ["restore", "--ckpt", str(ckpt), "--in",
                    str(corpus / "strong" / "00000.pgm"), "--steps", "3",
                    "--t1", "2"],
        "ablate pt": ["ablate", "pt", "--train-data", str(corpus),
                      "--eval-data", str(corpus), "--steps-weak", "1",
                      "--steps-strong", "1", "--batch-size", "2",
                      "--steps", "2", "--t1", "1"],
        # --steps left to its default, so that a config file may set it
        "ablate sampling": ["ablate", "sampling", "--ckpt", str(ckpt),
                            "--eval-data", str(corpus), "--t1-list", "1"],
    }[command]


def _ids(cases) -> list[str]:
    """pytest ids of (command, rest) cases: the top-level command, then
    ``rest``; a case that both ablate studies run names its study the
    second time."""
    ids = []
    for command, rest in cases:
        short = command.split()[0] + rest
        ids.append(command.replace(" ", "-") + rest if short in ids else short)
    return ids


@pytest.mark.parametrize("command,flag,value", _BOUNDARY,
                         ids=_ids((c, f"{f}={v}") for c, f, v in _BOUNDARY))
def test_values_just_outside_a_domain_exit_2_naming_the_flag(
        corpus, weak_ckpt, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    assert main([*_valid_argv(command, corpus, weak_ckpt), "--out", str(out),
                 f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    # restore reads no config file, so its messages name the flag alone
    assert re.match(rf"error: {flag}[/ ]", err), err
    assert "Traceback" not in err
    assert not out.exists()


_CONFIG_COMMANDS = ["gen-data", "train", "ablate pt", "ablate sampling"]


@pytest.mark.parametrize("command", _CONFIG_COMMANDS,
                         ids=_ids((c, "") for c in _CONFIG_COMMANDS))
def test_config_value_outside_its_domain_names_the_key(
        corpus, weak_ckpt, tmp_path, capsys, command):
    argv = _valid_argv(command, corpus, weak_ckpt)
    # the first setting with a value outside its domain that no flag sets
    key, value = next((key, v) for key, (typ, _, domain)
                      in _TABLES[command].items() if _flag(key) not in argv
                      for v in _outside(key, typ, domain))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_flag(key)}/{key} must be in "), err
    assert not out.exists()


# (study, flag) of each setting or path flag of the other ablate study
_FOREIGN = [
    *(("ablate pt", _flag(k)) for k in cli._SAMPLING_KEYS
      if k not in cli._PT_KEYS), ("ablate pt", "--ckpt"),
    *(("ablate sampling", _flag(k)) for k in cli._PT_KEYS
      if k not in cli._SAMPLING_KEYS), ("ablate sampling", "--train-data")]


@pytest.mark.parametrize("command,flag", _FOREIGN,
                         ids=[f"{c.replace(' ', '-')}{f}" for c, f in _FOREIGN])
def test_an_ablate_study_rejects_the_other_studys_flags(
        corpus, weak_ckpt, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    assert main([*_valid_argv(command, corpus, weak_ckpt), "--out", str(out),
                 flag, "1"]) == 1
    assert f"error: unrecognized arguments: {flag} 1" in \
        capsys.readouterr().err
    assert not out.exists()


def test_ablate_takes_no_which_flag(corpus, weak_ckpt, tmp_path, capsys):
    out = tmp_path / "out"
    argv = _valid_argv("ablate pt", corpus, weak_ckpt)
    assert main(["ablate", "--which", *argv[1:], "--out", str(out)]) == 1
    assert "error: unrecognized arguments: --which" in capsys.readouterr().err
    assert not out.exists()


def test_every_value_option_has_a_domain_shown_in_its_help():
    for name, p in _commands(build_parser()):
        settings = p.get_default("settings") or {}
        assert settings is _TABLES.get(name, settings), name
        for a in p._actions:
            if not a.option_strings or a.nargs == 0 \
                    or a.option_strings[0] in _NO_DOMAIN:
                continue
            assert a.dest in settings, (name, a.option_strings[0])
            _, default, domain = settings[a.dest]
            # the default lies in the domain, and --help shows both
            for x in default.split(",") if a.dest == "t1_list" else [default]:
                check(a.dest, int(x) if a.dest == "t1_list" else x, domain)
            assert a.help.endswith(f"(default {default}, in {domain})"), \
                a.help
