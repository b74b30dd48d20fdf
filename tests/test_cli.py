import argparse
import hashlib
import math
import struct

import pytest

from turbdiff import cli
from turbdiff.cli import build_parser, main
from turbdiff.denoiser import NetSpec, init_params
from turbdiff.formats import (DataError, load_checkpoint, save_checkpoint,
                              write_pgm)
from turbdiff.rng import Rng


def test_gen_data_rejects_negative_count(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--count", "-1"]) == 2
    assert "count must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (("--weak-factor", "3"), "--weak-factor"),
    (("--weak-factor", "0"), "--weak-factor"),
    (("--weak-factor", "-4"), "--weak-factor"),
    (("--elastic-sigma", "-1"), "elastic_sigma")],
    ids=["weak-factor-3", "weak-factor-0", "weak-factor-negative",
         "elastic-sigma-negative"])
def test_gen_data_rejects_bad_degradation_flags(tmp_path, capsys, flags,
                                                named):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--count", "2", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


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
        ("--lr", None, "float"), ("--gamma", None, "float"),
        ("--gamma1", None, "float"), ("--seed", None, "int"),
        ("--t-steps", None, "int"), ("--beta-start", None, "float"),
        ("--beta-end", None, "float"), ("--dtype", None, "str"),
        ("--checkpoint-every", None, "int")],
    "restore": [
        ("--ckpt", None, None), ("--in", None, None), ("--out", None, None),
        ("--t1", None, "int"), ("--steps", 60, "int"),
        ("--noise-start", False, None), ("--snapshots", 0, "int"),
        ("--seed", 0, "int"), ("--batch", 64, "int")],
    "eval": [("--pred", None, None), ("--ref", None, None),
             ("--out", None, None)],
    "ablate": [
        ("--which", None, None), ("--train-data", None, None),
        ("--eval-data", None, None), ("--ckpt", None, None),
        ("--out", None, None), ("--config", None, None),
        ("--steps-weak", None, "int"), ("--steps-strong", None, "int"),
        ("--batch-size", None, "int"), ("--lr", None, "float"),
        ("--gamma", None, "float"), ("--gamma1", None, "float"),
        ("--seed", None, "int"), ("--t-steps", None, "int"),
        ("--beta-start", None, "float"), ("--beta-end", None, "float"),
        ("--dtype", None, "str"), ("--steps", None, "int"),
        ("--t1", None, "int"), ("--t1-list", None, "str")],
}

_TRAIN_DEFAULTS = {
    "batch_size": (int, 8), "lr": (float, 2e-4), "gamma": (float, 0.01),
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
    "ablate": {"steps_weak": (int, 2500), "steps_strong": (int, 2500),
               **_TRAIN_DEFAULTS, "steps": (int, 60), "t1": (int, 30),
               "t1_list": (str, "10,20,30,45,60")},
}


def test_parser_options_and_defaults_are_golden():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: [(a.option_strings[0], a.default,
                   getattr(a.type, "__name__", None))
                   for a in p._actions if a.option_strings[0] != "-h"]
           for name, p in sub.choices.items()}
    assert got == _OPTIONS
    tables = {"gen-data": cli._GEN_KEYS, "train": cli._TRAIN_KEYS,
              "ablate": cli._ABLATE_KEYS}
    for name, table in tables.items():
        assert list(table.items()) == list(_KEY_DEFAULTS[name].items()), name
        for typ, default in table.values():
            assert type(default) is typ


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
    cfg.write_text("steps=1\nbatch_size=3\nseed=5\nlr=0.1\n")
    out = tmp_path / "override.ckpt"
    assert _train_weak(corpus, out, "--config", str(cfg), "--steps", "2",
                       "--batch-size", "2", "--seed", "0",
                       "--lr", "2e-4") == 0
    assert out.read_bytes() == weak_ckpt.read_bytes()


def test_train_unknown_config_key_exits_2_listing_allowed(corpus, tmp_path,
                                                          capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=2\nlearning_rate=0.1\n")
    out = tmp_path / "x.ckpt"
    assert _train_weak(corpus, out, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "learning_rate" in err
    assert ("(allowed: batch_size, beta_end, beta_start, checkpoint_every, "
            "dtype, gamma, gamma1, lr, seed, steps, t_steps)") in err
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
    out = tmp_path / "abl"
    assert main(["ablate", "--which", "sampling", "--ckpt", str(weak_ckpt),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--steps", "2", "--t1-list", "1,2"]) == 0
    rows = (out / "sampling_ablation.csv").read_text().splitlines()
    assert rows[0].startswith("variant,t1,nfe,")
    assert [r.split(",")[:3] for r in rows[1:]] == \
        [["t1=1", "1", "1"], ["t1=2", "2", "2"], ["noise_start", "2", "2"]]
    items = (out / "sampling_per_item.csv").read_text().splitlines()
    assert items[0] == "item_id,dist_t1=1,dist_t1=2,dist_noise_start"
    assert len(items) == 17
    # a malformed or out-of-range list is rejected before --out exists
    for i, bad in enumerate(["1,x", "1,3", "0"]):
        out = tmp_path / f"bad{i}"
        capsys.readouterr()
        assert main(["ablate", "--which", "sampling", "--ckpt", str(weak_ckpt),
                     "--eval-data", str(corpus), "--out", str(out),
                     "--steps", "2", "--t1-list", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--t1-list" in err
        assert not out.exists()


def test_ablate_pt_checkpoint_headers(corpus, tmp_path):
    out = tmp_path / "pt"
    assert main(["ablate", "--which", "pt", "--train-data", str(corpus),
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


@pytest.mark.parametrize("t1", ["0", "6"])
def test_ablate_pt_rejects_t1_outside_steps(corpus, tmp_path, capsys, t1):
    out = tmp_path / "pt"
    assert main(["ablate", "--which", "pt", "--train-data", str(corpus),
                 "--eval-data", str(corpus), "--out", str(out),
                 "--steps-weak", "1", "--steps-strong", "1",
                 "--batch-size", "2", "--steps", "5", "--t1", t1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--t1" in err
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


@pytest.mark.parametrize("batch", ["-3", "0"])
def test_restore_rejects_non_positive_batch(tmp_path, capsys, batch):
    code, out = _restore_tiny(tmp_path, "--batch", batch)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--batch" in err
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (("--t1", "0"), "--t1"), (("--t1", "-2"), "--t1"),
    (("--steps", "5", "--t1", "6"), "--t1"),
    (("--steps", "5", "--t1", "3", "--noise-start"), "--noise-start"),
    (("--snapshots", "-1"), "--snapshots")],
    ids=["t1-zero", "t1-negative", "t1-over-steps", "noise-start-t1",
         "snapshots-negative"])
def test_restore_rejects_bad_sampler_flags(tmp_path, capsys, flags, named):
    code, out = _restore_tiny(tmp_path, *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_restore_snapshots(tmp_path):
    code, out = _restore_tiny(tmp_path, "--steps", "5", "--t1", "3",
                              "--snapshots", "2")
    assert code == 0
    # respaced steps 3 and 1 of 5 (t = 500 and 1): the first and the last
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == \
        ["x_t0001.pgm", "x_t0500.pgm"]



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
