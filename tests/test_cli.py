"""CLI surface: file round trips, exit codes, batch verification runs."""

import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from momalg import cli, jets, quantum
from momalg.cli import build_parser, main
from momalg.serialization import (
    array_to_dict,
    load_json,
    mmap_from_dict,
    mmap_to_dict,
    reports_to_csv,
    save_json,
)
from momalg.algebra import MMap, exp_star, log_star
from momalg.combinatorics import Multiset
from momalg.quantum import random_hermitian, random_state, random_unitary

M = Multiset

LOG_FIXTURE = {
    "schema": 1, "n": 2, "caps": [1, 1],
    "entries": [
        {"m": [], "re": 1.0, "im": 0.0},
        {"m": [1], "re": 2.0, "im": 0.0},
        {"m": [2], "re": 3.0, "im": 0.0},
        {"m": [1, 2], "re": 10.0, "im": 0.0},
    ],
}


def write(path, payload):
    save_json(str(path), payload)
    return str(path)


def test_algebra_log_fixture(tmp_path):
    src = write(tmp_path / "f.json", LOG_FIXTURE)
    out = str(tmp_path / "log.json")
    assert main(["algebra", "log", src, "-o", out]) == 0
    result = mmap_from_dict(load_json(out))
    assert result(M([1, 2])) == pytest.approx(4.0, abs=1e-14)
    assert result(M([1])) == pytest.approx(2.0, abs=1e-14)


def test_algebra_convolve_identity_preserves_entries(tmp_path):
    rng = np.random.default_rng(0)
    f = MMap(2, {M(m): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for m in [[], [1], [2], [1, 2]]})
    src = write(tmp_path / "f.json", mmap_to_dict(f))
    ident = write(tmp_path / "one.json", {
        "schema": 1, "n": 2, "caps": [1, 1],
        "entries": [{"m": [], "re": 1.0, "im": 0.0}]})
    out = str(tmp_path / "conv.json")
    assert main(["algebra", "convolve", src, ident, "-o", out]) == 0
    assert load_json(out)["entries"] == load_json(src)["entries"]


def test_algebra_exp_log_roundtrip(tmp_path):
    src = write(tmp_path / "f.json", LOG_FIXTURE)
    mid = str(tmp_path / "log.json")
    out = str(tmp_path / "roundtrip.json")
    assert main(["algebra", "log", src, "-o", mid]) == 0
    assert main(["algebra", "exp", mid, "-o", out]) == 0
    original = mmap_from_dict(LOG_FIXTURE)
    assert mmap_from_dict(load_json(out)).allclose(original, 1e-10)
    # library-level consistency of the same round trip
    assert exp_star(log_star(original)).allclose(original, 1e-12)


def test_algebra_series_reports_truncation_deltas(tmp_path):
    src = write(tmp_path / "f.json", {
        "schema": 1, "n": 1, "caps": [1],
        "entries": [{"m": [], "re": 0.5, "im": 0.0},
                    {"m": [1], "re": 0.3, "im": 0.0}]})
    out = str(tmp_path / "series.json")
    assert main(["algebra", "series", src, "--depth", "40", "-o", out]) == 0
    payload = load_json(out)
    assert "truncation_delta" in payload
    got = mmap_from_dict(payload)
    assert got(M([])) == pytest.approx(np.log(1.5), abs=1e-9)


def test_algebra_raise_and_factorizing(tmp_path):
    src = write(tmp_path / "f.json", LOG_FIXTURE)
    out = str(tmp_path / "raised.json")
    assert main(["algebra", "raise", src, "--label", "1", "-o", out]) == 0
    raised = mmap_from_dict(load_json(out))
    assert raised(M([])) == pytest.approx(2.0)
    assert raised(M([2])) == pytest.approx(10.0)

    verdict = str(tmp_path / "fact.json")
    assert main(["algebra", "factorizing-check", src, "--cut", "1",
                 "-o", verdict]) == 0
    assert load_json(verdict)["factorizing"] is False


def test_exit_code_2_on_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["algebra", "log", str(bad)]) == 2


def test_exit_code_2_on_missing_field(tmp_path):
    src = write(tmp_path / "f.json", {"schema": 1, "entries": []})
    assert main(["algebra", "log", src]) == 2


def test_exit_code_3_on_domain_error(tmp_path):
    src = write(tmp_path / "f.json", {
        "schema": 1, "n": 1, "caps": [1],
        "entries": [{"m": [1], "re": 1.0, "im": 0.0}]})
    assert main(["algebra", "log", src]) == 3


def test_weak_values_sequential_query(tmp_path):
    rng = np.random.default_rng(50)
    d = 2
    psi_i, psi_f = random_state(rng, d), random_state(rng, d)
    a_ops = [random_hermitian(rng, d) for _ in range(2)]
    us = [random_unitary(rng, d) for _ in range(3)]
    query = {
        "schema": 1,
        "context": {
            "kind": "sequential",
            "psi_i": array_to_dict(psi_i), "psi_f": array_to_dict(psi_f),
            "unitaries": [array_to_dict(u) for u in us],
            "observables": [array_to_dict(a) for a in a_ops],
        },
        "subsets": [[1], [2], [1, 2]],
    }
    src = write(tmp_path / "q.json", query)
    out = str(tmp_path / "resp.json")
    assert main(["weak-values", src, "-o", out]) == 0
    resp = load_json(out)
    assert len(resp["values"]) == 3
    chain = us[2] @ a_ops[1] @ us[1] @ a_ops[0] @ us[0]
    den = us[2] @ us[1] @ us[0]
    expected = (psi_f.conj() @ chain @ psi_i) / (psi_f.conj() @ den @ psi_i)
    got = resp["values"][2]
    assert complex(got["re"], got["im"]) == pytest.approx(expected, abs=1e-10)


def test_weak_values_thermal_and_mc_modes(tmp_path):
    rng = np.random.default_rng(51)
    h = random_hermitian(rng, 2)
    a_op = random_hermitian(rng, 2)
    thermal_q = {
        "schema": 1,
        "context": {"kind": "thermal", "beta": 0.8,
                    "hamiltonian": array_to_dict(h),
                    "observables": [array_to_dict(a_op)]},
        "subsets": [[1]],
    }
    src = write(tmp_path / "tq.json", thermal_q)
    out = str(tmp_path / "tresp.json")
    assert main(["weak-values", src, "-o", out]) == 0

    psi_i, psi_f = random_state(rng, 2), random_state(rng, 2)
    mc_q = {
        "schema": 1,
        "mode": "mc", "samples": 2000, "seed": 3,
        "context": {"kind": "evolution", "tau": 1.0,
                    "psi_i": array_to_dict(psi_i),
                    "psi_f": array_to_dict(psi_f),
                    "hamiltonian": array_to_dict(h),
                    "observables": [array_to_dict(a_op)]},
        "subsets": [[1]],
    }
    src = write(tmp_path / "mq.json", mc_q)
    out = str(tmp_path / "mresp.json")
    assert main(["weak-values", src, "-o", out]) == 0
    value = load_json(out)["values"][0]
    assert "se" in value


def test_verify_batch_writes_reports_and_manifest(tmp_path):
    out = str(tmp_path / "reports")
    rc = main(["verify", "thm3", "--seeds", "1..3", "--pointers", "2",
               "--sysdim", "2", "--out", out])
    assert rc == 0
    manifest = load_json(str(tmp_path / "reports" / "manifest_thm3.json"))
    assert len(manifest["reports"]) == 3
    rep = load_json(str(tmp_path / "reports" / manifest["reports"][0]))
    assert rep["passed"] is True
    assert rep["max_abs_error"] <= 1e-8
    csv_text = (tmp_path / "reports" / "report_thm3.csv").read_text()
    assert csv_text.startswith("scenario,seed,label,subset")


def test_verify_thm2_flags_theorem2_regime(tmp_path):
    out = str(tmp_path / "reports")
    assert main(["verify", "thm2", "--seeds", "5", "--pointers", "2",
                 "--out", out]) == 0
    manifest = load_json(str(tmp_path / "reports" / "manifest_thm2.json"))
    rep = load_json(str(tmp_path / "reports" / manifest["reports"][0]))
    assert rep["metadata"]["theorem2_regime"] is True


def test_verify_genfun_and_report_projection(tmp_path):
    out = str(tmp_path / "reports")
    assert main(["verify", "genfun", "--vars", "3", "--seeds", "2",
                 "--out", out]) == 0
    manifest = load_json(str(tmp_path / "reports" / "manifest_genfun.json"))
    report_path = str(tmp_path / "reports" / manifest["reports"][0])
    csv_out = str(tmp_path / "proj.csv")
    assert main(["report", report_path, "--csv", csv_out]) == 0
    lines = (tmp_path / "proj.csv").read_text().strip().splitlines()
    assert len(lines) == len(load_json(report_path)["records"]) + 1


def test_verify_runs_are_reproducible(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["verify", "thermal", "--seeds", "9", "--pointers", "2",
                 "--sysdim", "2", "--beta", "0.5", "--out", out1]) == 0
    assert main(["verify", "thermal", "--seeds", "9", "--pointers", "2",
                 "--sysdim", "2", "--beta", "0.5", "--out", out2]) == 0
    rep1 = load_json(str(tmp_path / "r1" / "report_thermal_seed9_beta0.5.json"))
    rep2 = load_json(str(tmp_path / "r2" / "report_thermal_seed9_beta0.5.json"))
    rep1.pop("runtime_s")
    rep2.pop("runtime_s")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_mmap_json_roundtrip_is_bit_exact():
    rng = np.random.default_rng(52)
    f = MMap(3, {a: complex(rng.standard_normal(), rng.standard_normal())
                 for a in MMap(3).domain()})
    payload = json.loads(json.dumps(mmap_to_dict(f)))
    g = mmap_from_dict(payload)
    for a in f.domain():
        assert g(a) == f(a)


def test_env_var_overrides_default_tolerance(tmp_path, monkeypatch):
    out = str(tmp_path / "reports")
    monkeypatch.setenv("MOMALG_TOL", "1e-3")
    assert main(["verify", "genfun", "--seeds", "1", "--out", out]) == 0
    manifest = load_json(str(tmp_path / "reports" / "manifest_genfun.json"))
    rep = load_json(str(tmp_path / "reports" / manifest["reports"][0]))
    assert rep["metadata"]["tolerance"] == 1e-3


def test_operator_flags_validated_on_ingestion(tmp_path):
    rng = np.random.default_rng(53)
    psi = random_state(rng, 2)
    not_hermitian = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    op_payload = array_to_dict(not_hermitian)
    op_payload["hermitian"] = True
    query = {
        "schema": 1,
        "context": {
            "kind": "sequential",
            "psi_i": array_to_dict(psi), "psi_f": array_to_dict(psi),
            "unitaries": [array_to_dict(np.eye(2))] * 2,
            "observables": [op_payload],
        },
        "subsets": [[1]],
    }
    src = write(tmp_path / "q.json", query)
    assert main(["weak-values", src]) == 2


def test_verify_accepts_explicit_config_file(tmp_path):
    from momalg.experiments import random_config
    from momalg.serialization import config_from_dict, config_to_dict

    cfg = random_config("sequential-all-coupled", 21, n_pointers=2,
                        system_dim=2)
    payload = config_to_dict(cfg)
    src = write(tmp_path / "cfg.json", payload)
    out = str(tmp_path / "reports")
    assert main(["verify", "thm3", "--config", src, "--out", out]) == 0
    rep = load_json(str(tmp_path / "reports" / "report_thm3_seed21.json"))
    assert rep["passed"] is True

    # round trip keeps the scenario runnable and the matrices intact
    back = config_from_dict(json.loads(json.dumps(payload)))
    assert np.allclose(back.psi_i, cfg.psi_i)
    assert np.allclose(back.observables[0], cfg.observables[0])


def test_exit_codes_of_algebra_preconditions(tmp_path):
    zero = write(tmp_path / "zero.json", {
        "schema": 1, "n": 1, "entries": [{"m": [1], "re": 1.0}]})
    assert main(["algebra", "inverse", zero]) == 3     # f(empty) = 0
    big = write(tmp_path / "big.json", {
        "schema": 1, "n": 1, "entries": [{"m": [], "re": 1.5}]})
    assert main(["algebra", "series", big]) == 3       # |f(empty)| >= 1
    over = write(tmp_path / "over.json", {
        "schema": 1, "n": 2, "entries": [{"m": [1, 1], "re": 1.0}]})
    assert main(["algebra", "log", over]) == 2         # entry over its cap


def test_exit_code_3_on_oversized_mmap_before_allocating(tmp_path, monkeypatch,
                                                         capsys):
    # 2^40 subsets: the size preflight must refuse the map before any
    # lattice is enumerated or allocated
    import time
    from momalg import algebra

    def no_lattice(*args):
        raise AssertionError("lattice enumerated despite the size preflight")

    monkeypatch.setattr(algebra, "multiset_lattice", no_lattice)
    monkeypatch.setattr(algebra, "_pair_table", no_lattice)
    src = write(tmp_path / "n40.json", {
        "schema": 1, "n": 40, "entries": [{"m": [1], "re": 1.0}]})
    start = time.perf_counter()
    assert main(["algebra", "log", src]) == 3
    assert time.perf_counter() - start < 1.0
    assert "MiB" in capsys.readouterr().err


SUBSETS3 = ["[1]", "[2]", "[3]", "[1,2]", "[1,3]", "[2,3]", "[1,2,3]"]


@pytest.mark.parametrize("argv, reports", [
    (["thm1"], {"report_thm1_seed1.json": [("", s) for s in SUBSETS3]}),
    (["thm4", "--tau", "0.5", "1.0"],
     {f"report_thm4_seed1_tau{t}.json": [("", s) for s in SUBSETS3]
      for t in ("0.5", "1")}),
    (["thermal", "--beta", "0.5", "2"],
     {f"report_thermal_seed1_beta{b}.json": [("", s) for s in SUBSETS3]
      for b in ("0.5", "2")}),
    (["multiset", "--copies", "3"],
     {"report_multiset_seed1.json": [
         ("pair-variance", "[1,2]"), ("pair-variance-per-subset", "[1,2]"),
         ("thermal-susceptibility", "[1,2,3]")]}),
    (["genfun", "--vars", "2"],
     {"report_genfun_seed1.json": [
         ("", s) for s in ("[1]", "[2]", "[1,1]", "[1,2]", "[2,2]",
                           "[1,1,2]", "[1,2,2]", "[1,1,2,2]")] +
      [("standard-expansion", "[1,2]"), ("standard-expansion", "[1,1]")]}),
])
def test_verify_surface_per_scenario(tmp_path, argv, reports):
    # file names from the swept axis, manifest, CSV rows and the records
    # (label, subset) of every report, per CLI alias
    out = tmp_path / "reports"
    assert main(["verify", *argv, "--out", str(out)]) == 0
    alias = argv[0]
    manifest = load_json(str(out / f"manifest_{alias}.json"))
    assert manifest["reports"] == list(reports)
    assert manifest["csv"] == f"report_{alias}.csv"
    csv_lines = (out / manifest["csv"]).read_text().strip().splitlines()
    assert len(csv_lines) == 1 + sum(len(r) for r in reports.values())
    for name, records in reports.items():
        rep = load_json(str(out / name))
        assert [(r["label"], r["subset"]) for r in rep["records"]] == records


def _config_payload(scenario, **fields):
    from momalg.experiments import random_config
    from momalg.serialization import config_to_dict

    return {**config_to_dict(random_config(scenario, 3, n_pointers=2)),
            **fields}


def _thermal_query(context=(), **fields):
    ctx = {"kind": "thermal", "beta": 0.8,
           "hamiltonian": array_to_dict(np.diag([0.0, 1.0])),
           "observables": [array_to_dict(np.array([[0.0, 1.0], [1.0, 0.0]]))]}
    return {"schema": 1, "context": {**ctx, **dict(context)},
            "subsets": [[1]], **fields}


SCENARIO_NAMES = {"thm3": "sequential-all-coupled", "thm4":
                  "simultaneous-evolution", "thermal": "thermal"}
BAD_CONFIG_NUMBERS = [
    ("thm3", "tolerance", math.nan), ("thm3", "tolerance", -1.0),
    ("thm3", "tolerance", math.inf), ("thermal", "mutual_tolerance", math.nan),
    ("thermal", "mutual_tolerance", -1.0), ("thm3", "floor", -math.inf),
    ("thm3", "floor", math.nan), ("thermal", "beta", math.inf),
    ("thermal", "beta", math.nan), ("thm4", "tau", -math.inf),
    ("thm4", "tau", math.nan)]


@pytest.mark.parametrize("argv, payload, field", [
    (["algebra", "log"], {**LOG_FIXTURE, "n": "x"}, ".n:"),
    (["algebra", "log"], {**LOG_FIXTURE, "caps": "zz"}, ".caps:"),
    (["algebra", "log"], {**LOG_FIXTURE, "entries": 5}, ".entries:"),
    (["algebra", "log"], {**LOG_FIXTURE, "entries": [5]}, ".entries[0]:"),
    (["algebra", "log"], {**LOG_FIXTURE, "entries": [{"m": [1], "re": "a"}]},
     ".entries[0]:"),
    (["algebra", "log"], {**LOG_FIXTURE, "entries": [{"m": [0], "re": 1.0}]},
     ".entries[0].m:"),
    (["verify", "thermal", "--config"],
     _config_payload("thermal", beta="hot"), ".beta:"),
    (["verify", "genfun", "--config"], _config_payload("genfun", seed="s"),
     ".seed:"),
    (["verify", "thm3", "--config"],
     _config_payload("sequential-all-coupled", targets=[[0]]), ".targets:"),
    (["weak-values"], _thermal_query({"beta": "hot"}), "context.beta:"),
    (["weak-values"], _thermal_query({"floor": "low"}), "context.floor:"),
    (["weak-values"], _thermal_query({"observables": 5}),
     "context.observables:"),
    (["weak-values"], _thermal_query(samples="x"), ".samples:"),
    (["weak-values"], _thermal_query(seed="s"), ".seed:"),
    (["weak-values"], _thermal_query(mode="fast"), ".mode:"),
    (["weak-values"], _thermal_query(subsets=[[0]]), ".subsets[0]:"),
    (["weak-values"], [_thermal_query()], ": expected an object"),
    # gates must be finite and >= 0, tau and beta finite
    *[(["verify", scenario, "--config"],
       _config_payload(SCENARIO_NAMES[scenario], **{key: value}), f".{key}:")
      for scenario, key, value in BAD_CONFIG_NUMBERS],
    (["weak-values"], _thermal_query({"beta": math.inf}), "context.beta:"),
    (["weak-values"], _thermal_query({"beta": math.nan}), "context.beta:"),
    (["weak-values"], _thermal_query({"floor": -1.0}), "context.floor:"),
], ids=["n", "caps", "entries", "entry", "re", "label0", "beta", "seed",
        "targets", "wv-beta", "wv-floor", "wv-observables", "wv-samples",
        "wv-seed", "wv-mode", "wv-subset0", "wv-list",
        *[f"{key}-{value}" for _, key, value in BAD_CONFIG_NUMBERS],
        "wv-beta-inf", "wv-beta-nan", "wv-floor-neg"])
def test_exit_code_2_on_malformed_fields(tmp_path, capsys, argv, payload,
                                         field):
    # a field that cannot be converted is malformed input named in the
    # message, never a traceback (exit 1) or a domain error (exit 3)
    src = write(tmp_path / "in.json", payload)
    assert main([*argv, src, "--out" if argv[0] == "verify" else "-o",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err


# no record can pass a NaN or negative gate, and an infinite one passes all
BAD_TOLS = ("nan", "inf", "-inf", "-1")


@pytest.mark.parametrize("argv, env, flag", [
    (["verify", "thm1", "--pointers", "0"], {}, "--pointers"),
    (["verify", "thermal", "--pointers", "-1"], {}, "--pointers"),
    (["verify", "thermal", "--sysdim", "0"], {}, "--sysdim"),
    (["verify", "thermal", "--pointer-dim", "0"], {}, "--pointer-dim"),
    (["verify", "genfun", "--vars", "0"], {}, "--vars"),
    (["verify", "multiset", "--copies", "0"], {}, "--copies"),
    (["verify", "thermal", "--seeds", "5..x"], {}, "--seeds"),
    (["verify", "thermal", "--seeds", "3..1"], {}, "--seeds"),
    (["verify", "thermal"], {"MOMALG_TOL": "abc"}, "MOMALG_TOL"),
    (["algebra", "factorizing-check", "{fixture}", "--cut", "x"], {}, "--cut"),
    *[(["verify", "thermal", f"--tol={v}"], {}, "--tol") for v in BAD_TOLS],
    *[(["algebra", "factorizing-check", "{fixture}", "--cut", "1",
        f"--tol={v}"], {}, "--tol") for v in BAD_TOLS],
    *[(["verify", "thermal"], {"MOMALG_TOL": v}, "MOMALG_TOL")
      for v in BAD_TOLS],
    *[(["algebra", "log", "{fixture}", f"--tol={v}"], {}, "--tol")
      for v in ("nan", "-1", "abc")],
    *[(["verify", scenario, f"--{flag}={v}"], {}, f"--{flag}")
      for scenario, flag in (("thermal", "beta"), ("thm4", "tau"))
      for v in ("nan", "inf", "-inf")],
    *[(["verify", scenario, "--samples=-3"], {}, "--samples")
      for scenario in ("thm4", "thm1")],
], ids=["pointers0", "pointers-neg", "sysdim0", "pointer-dim0", "vars0",
        "copies0", "seeds-text", "seeds-empty", "env-tol", "cut-text",
        *[f"{where}-tol-{v}" for where in ("verify", "algebra", "env")
          for v in BAD_TOLS],
        *[f"algebra-log-tol-{v}" for v in ("nan", "-1", "abc")],
        *[f"{flag}-{v}" for flag in ("beta", "tau")
          for v in ("nan", "inf", "-inf")],
        "thm4-samples-neg", "thm1-samples-neg"])
def test_malformed_arguments_exit_2_naming_the_flag(tmp_path, monkeypatch,
                                                    capsys, argv, env, flag):
    # argparse refuses a bad flag with SystemExit(2); a value parsed later
    # is an InputFormatError, exit 2 as well, never a traceback or a run
    # over zero seeds
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    fixture = write(tmp_path / "f.json", LOG_FIXTURE)
    argv = [fixture if a == "{fixture}" else a for a in argv]
    out = ["--out", str(tmp_path / "out")] if argv[0] == "verify" else []
    try:
        code = main(argv + out)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("write_file", [
    lambda path: save_json(path, {"value": object()}),
    lambda path: reports_to_csv([{"records": []}, None], path),
], ids=["save_json", "reports_to_csv"])
def test_atomic_writers_remove_the_temp_file_on_failure(tmp_path, write_file):
    # the writer fails after writing part of its output: the temp file goes
    # and the old target stays as it was
    target = tmp_path / "out" / "target"
    target.parent.mkdir()
    target.write_text("old")
    with pytest.raises((TypeError, AttributeError)):
        write_file(str(target))
    assert os.listdir(target.parent) == ["target"]
    assert target.read_text() == "old"


@pytest.mark.parametrize("argv", [
    ["verify", "genfun", "--seeds", "1..3", "--out", "{file}"],
    ["verify", "genfun", "--out", "{file}/sub"],
    ["algebra", "log", "{fixture}", "-o", "{dir}"],
    ["algebra", "log", "{fixture}", "-o", "{file}/out.json"],
], ids=["verify-out-file", "verify-out-under-file", "algebra-o-dir",
        "algebra-o-under-file"])
def test_unwritable_output_paths_exit_2_naming_the_path(tmp_path, monkeypatch,
                                                       capsys, argv):
    # a file where a directory must be, or a directory where a file must
    # be, is malformed input naming the path, not a traceback (exit 1);
    # verify refuses its --out before the first verification
    (tmp_path / "file").write_text("keep")
    (tmp_path / "dir").mkdir()
    names = {"{file}": str(tmp_path / "file"), "{dir}": str(tmp_path / "dir"),
             "{fixture}": write(tmp_path / "f.json", LOG_FIXTURE)}
    for key, value in names.items():
        argv = [a.replace(key, value) for a in argv]

    def refused(cfg):
        raise AssertionError("verification ran before --out was checked")
    monkeypatch.setattr(cli, "run_verification", refused)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and argv[-1] in err
    assert (tmp_path / "file").read_text() == "keep"
    assert os.listdir(tmp_path / "dir") == []


def test_in_process_calls_share_no_state(tmp_path):
    # the parser is built once per process; one call's flags, or a flag
    # argparse refuses, leave nothing behind for the next call
    assert build_parser() is build_parser()
    assert main(["verify", "thermal", "--pointers", "2",
                 "--out", str(tmp_path / "two")]) == 0
    with pytest.raises(SystemExit) as refused:
        main(["verify", "thermal", "--pointers", "x"])
    assert refused.value.code == 2
    assert main(["verify", "thermal", "--out", str(tmp_path / "default")]) == 0
    rep = load_json(str(tmp_path / "default" /
                        "report_thermal_seed1_beta1.json"))
    assert len(rep["records"]) == 7


def test_main_scopes_numpy_error_state_to_the_call(tmp_path, monkeypatch):
    # floating-point errors raise inside a call, and the caller's error
    # state is back as it was after it, whatever the exit code
    seen = []
    real = cli.run_verification

    def spy(cfg):
        seen.append(np.geterr())
        return real(cfg)
    monkeypatch.setattr(cli, "run_verification", spy)
    src = write(tmp_path / "f.json", {
        "schema": 1, "n": 1, "caps": [1],
        "entries": [{"m": [1], "re": 1.0, "im": 0.0}]})
    with np.errstate(all="warn"):
        before = np.geterr()
        assert main(["verify", "genfun", "--vars", "2",
                     "--out", str(tmp_path)]) == 0
        assert np.geterr() == before
        assert main(["algebra", "log", src]) == 3
        assert np.geterr() == before
    assert seen == [{"divide": "raise", "over": "raise", "under": "ignore",
                     "invalid": "raise"}]


def test_manifest_records_the_argv_main_parsed(tmp_path, monkeypatch):
    # an in-process call records its own argv, not the host process's
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag"])
    argv = ["verify", "genfun", "--vars", "2", "--out", str(tmp_path / "a")]
    assert main(argv) == 0
    assert load_json(str(tmp_path / "a" / "manifest_genfun.json"))[
        "argv"] == argv
    # without an argv, main parses and records sys.argv[1:]
    argv = ["verify", "genfun", "--vars", "2", "--out", str(tmp_path / "b")]
    monkeypatch.setattr(sys, "argv", ["momalg", *argv])
    assert main() == 0
    assert load_json(str(tmp_path / "b" / "manifest_genfun.json"))[
        "argv"] == argv


@pytest.mark.parametrize("scenario", ["thermal", "thm1"])
def test_verify_refuses_an_oversized_simulation_before_allocating(
        tmp_path, scenario):
    # 8 pointers of dimension 2 on a qubit: 2^8 blocks of 512 x 512, 1 GiB
    # per jet matrix for thermal; thm1 carries a pure jet vector, and the
    # jet-valued cumulant ring of its moments (3^16 pairs) is refused first.
    # Run in a child whose address space is capped, so that a missing
    # preflight ends in a MemoryError, not in the host's memory (one BLAS
    # thread keeps the child's own buffers well under the cap).
    figure = {"thermal": "1024 MiB", "thm1": "2956 MiB"}[scenario]
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "momalg", "verify", scenario, "--pointers", "8",
         "--out", str(tmp_path)], capture_output=True, text=True,
        preexec_fn=cap_memory, timeout=60, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("domain error:") and figure in proc.stderr


@pytest.mark.parametrize("scenario", ["thm1", "thm3"])
def test_verify_refuses_the_sequential_cumulant_ring_before_any_state(
        tmp_path, monkeypatch, capsys, scenario):
    # 7 pointers: the jet-valued cumulant ring of the moments would hold
    # 3^14 lattice pairs (328 MiB), so the run is refused before the kick
    # chain is evolved
    def no_state(*args):
        raise AssertionError("joint state built despite the ring preflight")

    monkeypatch.setattr(quantum, "evolved_joint_state", no_state)
    assert main(["verify", scenario, "--pointers", "7",
                 "--out", str(tmp_path)]) == 3
    assert "lattice pairs" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["thermal", "thm4"])
def test_verify_refuses_an_oversized_exponential_before_allocating(
        tmp_path, scenario):
    # 7 pointers of dimension 2 on a qubit: 2^7 blocks of 256 x 256, 128 MiB
    # per jet matrix, within the limit, but the Taylor exponential holds
    # q + 2 such stacks (and the spectral route's states would not fit
    # either).  The child's address space is capped at 768 MiB, below what
    # the exponential would allocate, so a missing preflight ends in a
    # MemoryError, not in the host's memory.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 28, 3 * 2 ** 28))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "momalg", "verify", scenario, "--pointers", "7",
         "--out", str(tmp_path)], capture_output=True, text=True,
        preexec_fn=cap_memory, timeout=60, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("domain error:")
    assert "held by the Taylor exponential" in proc.stderr


JET_RING = ("--pointers", "4", "--sysdim", "2", "--pointer-dim", "2")
DENSE_HILBERT = ("--pointers", "3", "--sysdim", "2", "--pointer-dim", "4")


def verdicts(out):
    """The passed flag of every report a verify run wrote to `out`."""
    names = load_json(str(out / "manifest_thermal.json"))["reports"]
    return [load_json(str(out / name))["passed"] for name in names]


@pytest.mark.parametrize("shape, seeds", [(DENSE_HILBERT, 5), (JET_RING, 25)],
                         ids=["dense-hilbert", "jet-ring"])
def test_thermal_fails_when_the_taylor_hermitian_square_drops_its_adjoint(
        tmp_path, monkeypatch, shape, seeds):
    # At these shapes the 128- and 32-dim joint-space Boltzmann jets (lhs)
    # take the spectral route and the 2-dim system-side jet (rhs and
    # rhs_alt) the Taylor route.  A Taylor Hermitian square that keeps W
    # but drops W^H then moves only the right-hand sides, and every seed
    # fails; with all three on the Taylor route, 22 of 25 such runs passed
    # at the dense-hilbert shape and 24 of 25 at the jet-ring shape.
    real = jets._block_products

    def without_adjoint(table, a, b, out, hermitian=False):
        if not hermitian:
            return real(table, a, b, out)
        for i, j, c in zip(table.ia, table.ib, table.ic):
            if i <= j:
                out[c] += a[i] @ b[j] * (0.5 if i == j else 1.0)

    monkeypatch.setattr(jets, "_block_products", without_adjoint)
    out = tmp_path / "reports"
    assert main(["verify", "thermal", *shape, "--seeds", f"1..{seeds}",
                 "--out", str(out)]) == 1
    assert verdicts(out) == [False] * seeds


def test_thermal_fails_when_a_spectral_divided_difference_is_off(
        tmp_path, monkeypatch):
    # The mirror case at the jet-ring shape: a defect of the spectral route
    # moves only the lhs, since the rhs stays on the Taylor route, and every
    # seed fails.  The defect scales one divided difference by 1 + 1e-6:
    # exp[l, l] = e^l at the top cluster l of -beta H_S, the ground state's,
    # which weighs most in e^(-beta H).
    real = jets._exp_divided_differences

    def off(lam, mids):
        table = real(lam, mids)
        table[()][-1, -1] *= 1 + 1e-6
        return table

    monkeypatch.setattr(jets, "_exp_divided_differences", off)
    out = tmp_path / "reports"
    assert main(["verify", "thermal", *JET_RING, "--seeds", "1..25",
                 "--out", str(out)]) == 1
    assert verdicts(out) == [False] * 25


@pytest.mark.parametrize("shape, beta, seeds, code, route", [
    ((), "500", "1", 3, "_spectral_exp"),
    (("--sysdim", "4"), "500", "1", 3, "_taylor_exp"),
    (JET_RING, "300", "2", 3, "_spectral_exp"),
    (JET_RING, "200", "1..5", 0, None)],
    ids=["defaults-500", "sysdim4-500", "jet-ring-300", "jet-ring-200"])
def test_verify_thermal_refuses_a_boltzmann_jet_beyond_double_range(
        tmp_path, monkeypatch, capsys, shape, beta, seeds, code, route):
    # e^(-beta H) leaves the double range at these beta: a domain error
    # naming the overflow, exit 3, from whichever route the exponential
    # took, not a FloatingPointError traceback; beta 200 still passes
    taken = []
    for name in ("_taylor_exp", "_spectral_exp"):
        def spy(m, *args, _real=getattr(jets, name), _name=name):
            if m.caps:                    # not an Opitz matrix's exponential
                taken.append(_name)
            return _real(m, *args)
        monkeypatch.setattr(jets, name, spy)
    assert main(["verify", "thermal", *shape, "--beta", beta, "--seeds", seeds,
                 "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert ("overflows" in err) == (code == 3)
    if route:
        assert taken[-1] == route
