"""CLI surface: file round trips, exit codes, batch verification runs."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momalg import cli, jets, quantum, serialization
from momalg.cli import build_parser, main
from momalg.serialization import (
    REPORT_CSV_COLUMNS,
    array_to_dict,
    load_json,
    mmap_from_dict,
    mmap_to_dict,
    reports_to_csv,
    save_json,
)
from momalg.algebra import MMap, exp_star, log_star
from momalg.combinatorics import Multiset
from momalg.experiments import SCENARIOS
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


def test_algebra_raise_on_a_14_label_subset_map_builds_no_pair_table(
        tmp_path, monkeypatch):
    # raise takes no product, and the weights a! that its output is written
    # with come from the caps alone: an n = 14 subset map (2^14 entries,
    # whose pair table would be 3^14 pairs, 328 MiB) is raised and written
    def no_table(*args):
        raise AssertionError("pair table built for a map with no product")

    monkeypatch.setattr(jets, "_pair_table", no_table)
    src = write(tmp_path / "n14.json", {"schema": 1, "n": 14, "entries": [
        {"m": [], "re": 1.0}, {"m": [1], "re": 2.0},
        {"m": [1, 14], "re": 3.0, "im": -1.0}, {"m": [2, 3], "re": 4.0}]})
    out = str(tmp_path / "raised.json")
    assert main(["algebra", "raise", src, "--label", "1", "-o", out]) == 0
    raised = mmap_from_dict(load_json(out))
    assert raised(M([])) == 2.0 and raised(M([14])) == 3.0 - 1.0j
    assert raised.max_abs_diff(raised.replace(M([14]), 0.0)) == abs(3.0 - 1.0j)
    assert len(load_json(out)["entries"]) == 2


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


PAULI_X = array_to_dict(np.array([[0.0, 1.0], [1.0, 0.0]]))
CONTEXTS = {
    "sequential": {"psi_i": array_to_dict([1.0, 0.0]),
                   "psi_f": array_to_dict([0.6, 0.8]),
                   "unitaries": [array_to_dict(np.eye(2))] * 2},
    "evolution": {"psi_i": array_to_dict([1.0, 0.0]),
                  "psi_f": array_to_dict([0.6, 0.8]),
                  "hamiltonian": array_to_dict(np.diag([0.0, 1.0])),
                  "tau": 1.0},
    "thermal": {"hamiltonian": array_to_dict(np.diag([0.0, 1.0])),
                "beta": 0.8}}
# the modes that read only fields of each context kind
FITTING_MODES = {"sequential": {"auto", "sequential", "simultaneous"},
                 "evolution": {"auto", "jet", "simultaneous", "mc"},
                 "thermal": {"auto", "thermal"}}


@pytest.mark.parametrize("surface", ["verify", "weak-values"])
def test_monte_carlo_sample_count_is_refused_before_drawing(tmp_path, capsys,
                                                           surface):
    # 10^15 samples need petabytes: a domain error naming the count (exit
    # 3), not a memory error
    samples = 10 ** 15
    if surface == "verify":
        argv = ["verify", "thm4", "--samples", str(samples), "--seeds", "1",
                "--out", str(tmp_path / "out")]
    else:
        argv = ["weak-values", write(tmp_path / "q.json", {
            "schema": 1, "mode": "mc", "samples": samples, "subsets": [[1]],
            "context": {"kind": "evolution", "observables": [PAULI_X],
                        **CONTEXTS["evolution"]}})]
    assert main(argv) == 3
    assert f"{samples} Monte-Carlo samples" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(CONTEXTS))
def test_weak_values_refuse_a_mode_that_reads_fields_the_kind_lacks(
        tmp_path, capsys, kind):
    # a mode that does not fit the context kind is malformed input naming
    # <file>.mode, before the first subset; every other mode answers
    for mode in ("auto", "sequential", "simultaneous", "jet", "thermal", "mc"):
        src = write(tmp_path / f"{mode}.json", {
            "schema": 1, "mode": mode, "samples": 50, "subsets": [[1]],
            "context": {"kind": kind, "observables": [PAULI_X],
                        **CONTEXTS[kind]}})
        code = main(["weak-values", src, "-o", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        if mode in FITTING_MODES[kind]:
            assert code == 0, err
        else:
            assert code == 2 and f"{src}.mode: " in err


@pytest.mark.parametrize("kind, mode", [
    ("sequential", "sequential"), ("sequential", "simultaneous"),
    ("evolution", "jet"), ("evolution", "mc"), ("thermal", "thermal")])
def test_weak_values_refuse_a_label_above_the_observables(
        tmp_path, monkeypatch, capsys, kind, mode):
    # one observable: subsets[1] = [2] names none, which is malformed input
    # naming it, before any value is computed (it was a value of 0 or 1,
    # an IndexError or a domain error, by mode)
    def computed(*args):
        raise AssertionError("a weak value was computed")

    for name in ("sequential_weak_value", "simultaneous_weak_value",
                 "script_D", "thermal_E", "script_D_monte_carlo"):
        monkeypatch.setattr(cli, name, computed)
    out = tmp_path / "out.json"
    src = write(tmp_path / "q.json", {
        "schema": 1, "mode": mode, "samples": 50, "subsets": [[1], [2]],
        "context": {"kind": kind, "observables": [PAULI_X],
                    **CONTEXTS[kind]}})
    assert main(["weak-values", src, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and f"{src}.subsets[1]: " in err
    assert not out.exists()


def test_weak_values_price_the_orderings_of_a_monte_carlo_subset(
        tmp_path, monkeypatch, capsys):
    # a 10-label subset has 3628800 orderings, about 0.5 GiB as a list: a
    # domain error naming them (exit 3) before any is listed or any sample
    # drawn, whatever the sample count
    from momalg import weakvalues

    def listed(*args):
        raise AssertionError("the orderings were listed")

    monkeypatch.setattr(weakvalues.itertools, "permutations", listed)
    for samples in (1, 100_000):
        src = write(tmp_path / "q.json", {
            "schema": 1, "mode": "mc", "samples": samples,
            "subsets": [[1] * 10],
            "context": {"kind": "evolution", "observables": [PAULI_X],
                        **CONTEXTS["evolution"]}})
        assert main(["weak-values", src]) == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error:")
        assert f"{samples} Monte-Carlo samples over 3628800 orderings" in err


@pytest.mark.parametrize("mode", ["auto", "thermal"])
def test_weak_values_refuse_a_nonpositive_thermal_beta(tmp_path, capsys, mode):
    # beta > 0 is a precondition of the thermal maps: exit 3, not 2
    for beta in (0.0, -1.0):
        src = write(tmp_path / "q.json",
                    {**_thermal_query({"beta": beta}), "mode": mode})
        assert main(["weak-values", src]) == 3
        assert "beta must be positive" in capsys.readouterr().err


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


@pytest.mark.parametrize("payload, field", [
    ([1, 2], ""), ("report", ""), ({"records": 5}, ".records"),
    ({"records": [1]}, ".records[0]")],
    ids=["list", "string", "records-number", "record-number"])
@pytest.mark.parametrize("to_csv", [False, True], ids=["stdout", "csv"])
def test_report_refuses_a_malformed_report(tmp_path, capsys, payload, field,
                                           to_csv):
    # a report that is not an object, records that are not a list and a
    # record that is not an object are malformed input naming the field
    # (exit 2), to stdout and to a CSV file alike; no CSV is written
    path = str(tmp_path / "bad.json")
    save_json(path, payload)
    csv_out = tmp_path / "out.csv"
    assert main(["report", path, *(["--csv", str(csv_out)] if to_csv
                                   else [])]) == 2
    assert f"{path}{field}: expected" in capsys.readouterr().err
    assert not csv_out.exists()


def test_report_without_records_is_an_empty_csv(tmp_path, capsys):
    path = str(tmp_path / "empty.json")
    save_json(path, {"scenario": "genfun"})
    assert main(["report", path]) == 0
    assert capsys.readouterr().out.strip() == ",".join(REPORT_CSV_COLUMNS)


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


def test_verify_names_close_sweep_values_apart(tmp_path):
    # 1.0000001 and 1.0000002 print alike with :g; each keeps its report,
    # named once in the manifest, while the :g names stay where they read
    # back as the same float
    out = tmp_path / "out"
    assert main(["verify", "thermal", "--pointers", "2", "--seeds", "1",
                 "--beta", "1.0000001", "1.0000002", "0.5",
                 "--out", str(out)]) == 0
    names = ["report_thermal_seed1_beta1.0000001.json",
             "report_thermal_seed1_beta1.0000002.json",
             "report_thermal_seed1_beta0.5.json"]
    assert load_json(str(out / "manifest_thermal.json"))["reports"] == names
    assert sorted(os.listdir(out)) == sorted(
        names + ["manifest_thermal.json", "report_thermal.csv"])
    betas = [load_json(str(out / name))["metadata"]["beta"] for name in names]
    assert betas == [1.0000001, 1.0000002, 0.5]
    rows = (out / "report_thermal.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + sum(len(load_json(str(out / name))["records"])
                                for name in names)


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


ALIASES = {name: row.aliases[0] for name, row in SCENARIOS.items()}


@pytest.mark.parametrize("scenario", sorted(ALIASES))
def test_config_json_round_trip_keeps_every_field(scenario):
    # every ExperimentConfig field, non-defaults included, comes back from
    # config_to_dict -> json -> config_from_dict exactly
    import dataclasses

    from momalg.experiments import ExperimentConfig, random_config
    from momalg.serialization import config_from_dict, config_to_dict

    cfg = dataclasses.replace(
        random_config(scenario, 5), mutual_tolerance=3e-11, mc_samples=7,
        targets=(M([1]), M([1, 2])))
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))

    def same(x, y):
        if isinstance(x, quantum.PointerSpec):
            return all(np.array_equal(getattr(x, k), getattr(y, k))
                       for k in ("phi", "s", "r"))
        if isinstance(x, (tuple, list)):
            return len(x) == len(y) and all(map(same, x, y))
        if isinstance(x, np.ndarray):
            return np.array_equal(x, y)
        return type(x) is type(y) and x == y

    for f in dataclasses.fields(ExperimentConfig):
        assert same(getattr(cfg, f.name), getattr(back, f.name)), f.name


@pytest.mark.parametrize("scenario", sorted(ALIASES))
def test_config_replay_writes_the_seeded_report(tmp_path, scenario):
    # verify <alias> --config <the written seeded config> gives the report
    # of verify <alias> --seeds <seed>, runtime_s apart
    from momalg.experiments import random_config
    from momalg.serialization import config_to_dict

    alias = ALIASES[scenario]
    for seed in (1, 2, 3):
        config = write(tmp_path / f"cfg{seed}.json",
                       config_to_dict(random_config(scenario, seed)))
        reports = []
        for source in (["--seeds", str(seed)], ["--config", config]):
            out = tmp_path / f"{source[0][2:]}{seed}"
            assert main(["verify", alias, *source, "--out", str(out)]) == 0
            name = load_json(str(out / f"manifest_{alias}.json"))["reports"]
            reports.append(load_json(str(out / name[0])))
            reports[-1].pop("runtime_s")
        assert reports[0] == reports[1]


@pytest.mark.parametrize("alias", ["thermal", "multiset"])
def test_hs_zero_runs_a_zero_system_hamiltonian(tmp_path, alias):
    # --hs zero sets H_S = 0 in every scenario that has one, and the
    # reports differ from those of a random H_S, and pass
    from momalg.experiments import random_config

    for scenario in ("thermal", "multiset", "simultaneous-evolution"):
        cfg = random_config(scenario, 1, zero_hamiltonian=True)
        assert not cfg.hamiltonian.any()
    reports = []
    for hs in ("random", "zero"):
        out = tmp_path / hs
        assert main(["verify", alias, "--hs", hs, "--seeds", "1..2",
                     "--out", str(out)]) == 0
        names = load_json(str(out / f"manifest_{alias}.json"))["reports"]
        reports.append([load_json(str(out / n))["records"] for n in names])
    for random_h, zero_h in zip(*reports):
        assert [r["lhs_re"] for r in random_h] != [r["lhs_re"] for r in zero_h]


BAD_LABELS = (1.7, True, "1")


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
    for label in BAD_LABELS:                           # a label not an int
        bad = write(tmp_path / "label.json", {
            "schema": 1, "n": 1, "entries": [{"m": [label], "re": 1.0}]})
        assert main(["algebra", "log", bad]) == 2


@pytest.mark.parametrize("op, values", [
    ("exp", {(): 1e300}),
    *[(op, {(): 1.0, (1,): 1e300, (2,): 1e300})
      for op in ("log", "exp", "inverse")],
    *[(op, {(): 1e-320}) for op in ("log", "inverse")]],
    ids=["exp-huge-empty", "log-huge-pair", "exp-huge-pair",
         "inverse-huge-pair", "log-tiny-empty", "inverse-tiny-empty"])
def test_exit_code_3_on_algebra_results_outside_the_double_range(
        tmp_path, capsys, op, values):
    # an overflow, or the nan of inf - inf, is a domain error naming the
    # double range: never a traceback (exit 1), never a file of NaNs
    src = write(tmp_path / "f.json", {"schema": 1, "n": 2, "entries": [
        {"m": list(m), "re": v} for m, v in values.items()]})
    out = tmp_path / "out.json"
    assert main(["algebra", op, src, "-o", str(out)]) == 3
    assert "leaves the double range" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_3_on_oversized_mmap_before_allocating(tmp_path, monkeypatch,
                                                         capsys):
    # 2^40 subsets: the size preflight must refuse the map before any
    # lattice is enumerated or allocated
    import time
    from momalg import algebra

    def no_lattice(*args):
        raise AssertionError("lattice enumerated despite the size preflight")

    monkeypatch.setattr(algebra, "multiset_lattice", no_lattice)
    monkeypatch.setattr(jets, "_pair_table", no_lattice)
    src = write(tmp_path / "n40.json", {
        "schema": 1, "n": 40, "entries": [{"m": [1], "re": 1.0}]})
    start = time.perf_counter()
    assert main(["algebra", "log", src]) == 3
    assert time.perf_counter() - start < 1.0
    assert "MiB" in capsys.readouterr().err


def test_exit_code_3_on_a_huge_default_caps_mmap_before_forming_its_caps(
        tmp_path, capsys):
    # n = 10^12 labels and no caps: the default caps, one per label, are
    # priced from n (2^n subsets) before any tuple of n caps or 2**n is
    # formed
    import time

    src = write(tmp_path / "huge.json", {
        "schema": 1, "n": 10 ** 12, "entries": [{"m": [], "re": 1.0}]})
    start = time.perf_counter()
    assert main(["algebra", "log", src]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "huge.json.n: 2^1000000000000 subsets" in err and "MiB" in err


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


def _three_pointers(scenario, key, count):
    """A 3-pointer config payload that keeps only `count` entries of the
    list field `key`."""
    from momalg.experiments import random_config
    from momalg.serialization import config_to_dict

    payload = config_to_dict(random_config(scenario, 3, n_pointers=3))
    return {**payload, key: payload[key][:count]}


def _without(scenario, key):
    """A config payload of `scenario` without its field `key`."""
    return {k: v for k, v in _config_payload(scenario).items() if k != key}


def _pointer_with_s(dim):
    """A thm3 config payload whose first pointer couples through a
    `dim` x `dim` s."""
    payload = _config_payload("sequential-all-coupled")
    first, *rest = payload["pointers"]
    return {**payload,
            "pointers": [{**first, "s": array_to_dict(np.eye(dim))}, *rest]}


def _thermal_query(context=(), **fields):
    ctx = {"kind": "thermal", "beta": 0.8,
           "hamiltonian": array_to_dict(np.diag([0.0, 1.0])),
           "observables": [array_to_dict(np.array([[0.0, 1.0], [1.0, 0.0]]))]}
    return {"schema": 1, "context": {**ctx, **dict(context)},
            "subsets": [[1]], **fields}


def _sequential_query(**context):
    ctx = {"kind": "sequential", "psi_i": array_to_dict([1.0, 0.0]),
           "psi_f": array_to_dict([0.6, 0.8]),
           "unitaries": [array_to_dict(np.eye(2))] * 2,
           "observables": [array_to_dict(np.array([[0.0, 1.0], [1.0, 0.0]]))]}
    return {"schema": 1, "context": {**ctx, **context}, "subsets": [[1]]}


def _flagged(matrix, flag):
    return {**array_to_dict(matrix), flag: True}


SCENARIO_NAMES = {"thm3": "sequential-all-coupled", "thm4":
                  "simultaneous-evolution", "thermal": "thermal",
                  "multiset": "multiset"}
MISSING_FIELDS = [("thm3", "psi_i"), ("multiset", "psi_f"),
                  ("thermal", "hamiltonian"), ("thermal", "beta"),
                  ("thm4", "tau"), ("thm3", "pointers")]
BAD_CONFIG_NUMBERS = [
    ("thm3", "tolerance", math.nan), ("thm3", "tolerance", -1.0),
    ("thm3", "tolerance", math.inf), ("thermal", "mutual_tolerance", math.nan),
    ("thermal", "mutual_tolerance", -1.0), ("thm3", "floor", -math.inf),
    ("thm3", "floor", math.nan), ("thermal", "beta", math.inf),
    ("thermal", "beta", math.nan), ("thm4", "tau", -math.inf),
    ("thm4", "tau", math.nan)]


MALFORMED_CONFIG_FIELDS = [
    ("thm3", "targets", [[9]], ".targets[0]:"),
    ("thermal", "targets", [[1], [1, 1]], ".targets[1]:"),
    ("thermal", "targets", [[]], ".targets[0]:"),
    ("genfun", "targets", [[7]], ".targets[0]:"),
    ("genfun", "copies", [2], ".copies:"),
    ("genfun", "copies", [2, 0, 2], ".copies[1]:"),
    ("multiset", "copies", [0], ".copies[0]:"),
    ("multiset", "copies", [-1], ".copies[0]:"),
    ("multiset", "copies", [2.5], ".copies[0]:"),
    ("multiset", "seed", 2.5, ".seed:"),
    ("thermal", "seed", "1", ".seed:"),
    ("thm4", "mc_samples", 2.5, ".mc_samples:"),
    ("thm4", "mc_samples", True, ".mc_samples:")]


ONE_LABEL = {"schema": 1, "n": 1, "caps": [1],
             "entries": [{"m": [], "re": 1.0}, {"m": [1], "re": 0.5}]}


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
     _config_payload("sequential-all-coupled", targets=[[0]]), ".targets[0]:"),
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
    # every context field is named as a config's is: context.<field>
    (["weak-values"], _sequential_query(psi_i=array_to_dict([0.0, 0.0])),
     "context.psi_i:"),
    (["weak-values"], _sequential_query(psi_f={"dim": 2, "data": [1.0]}),
     "context.psi_f:"),
    (["weak-values"], _thermal_query(
        {"hamiltonian": _flagged(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                 "hermitian")}), "context.hamiltonian:"),
    (["weak-values"], _sequential_query(unitaries=[
        _flagged(np.array([[1.0, 1.0], [0.0, 1.0]]), "unitary"),
        array_to_dict(np.eye(2))]), "context.unitaries[0]:"),
    (["weak-values"], _sequential_query(psi_i=array_to_dict([1e200, 1e200])),
     "context.psi_i: overflow"),
    (["verify", "genfun", "--config"], _without("genfun", "probabilities"),
     ".probabilities: missing required field"),
    # a config's arrays must agree with each other: one system dimension,
    # n observables and, in the kick chain, n + 1 unitaries for n pointers
    (["verify", "thm3", "--config"], _config_payload(
        "sequential-all-coupled", psi_i=array_to_dict(np.ones(3) / 3 ** 0.5)),
     ".psi_i: dimension 3"),
    (["verify", "thermal", "--config"],
     _three_pointers("thermal", "observables", 2), ".observables: 2 given"),
    (["verify", "thm4", "--config"],
     _three_pointers("simultaneous-evolution", "observables", 2),
     ".observables: 2 given"),
    (["verify", "thm1", "--config"],
     _three_pointers("sequential-per-subset", "unitaries", 2),
     ".unitaries: 2 given"),
    # a config holds every field its scenario reads, a pointer's s and r
    # have the dimension of its phi
    *[(["verify", alias, "--config"], _without(SCENARIO_NAMES[alias], key),
       f".{key}: missing required field") for alias, key in MISSING_FIELDS],
    (["verify", "thm3", "--config"], _pointer_with_s(3),
     ".pointers[0].s: dimension 3"),
    # a weak-value context is checked as a config is, and a mode reads only
    # fields its kind has
    (["weak-values"], {**_sequential_query(), "mode": "jet"}, ".mode:"),
    (["weak-values"], _sequential_query(observables=[
        array_to_dict(np.eye(2))] * 3), "context.unitaries: 2 given"),
    (["weak-values"], _sequential_query(
        observables=[array_to_dict(np.eye(3))],
        unitaries=[array_to_dict(np.eye(3))] * 2), "context.psi_i: dimension 2"),
    # an M-map's caps are integers >= 0 and its entries finite numbers
    *[(["algebra", "log"], {**ONE_LABEL, "caps": caps}, ".caps:")
      for caps in ([-1], [1.5], [True])],
    *[(["algebra", "log"], {**ONE_LABEL, "entries": [{"m": [], "re": value}]},
       ".entries[0]:") for value in (math.nan, float("1e400"))],
    # a target is a nonempty multiset on its scenario's lattice, a copy
    # count an integer >= 1, one per genfun variable, and every integer
    # field a JSON integer in range, never a float, a bool or a string
    *[(["verify", alias, "--config"],
       _config_payload(SCENARIO_NAMES.get(alias, alias), **{key: value}),
       field) for alias, key, value, field in MALFORMED_CONFIG_FIELDS],
    *[(["weak-values"], _thermal_query(**{key: value}), f".{key}:")
      for key, value in (("samples", 2.5), ("samples", 0), ("seed", 2.5),
                         ("seed", -1), ("seed", True))],
    *[(["algebra", "log"], {**ONE_LABEL, "n": n}, ".n:")
      for n in (2.7, True, "1")],
    (["algebra", "log"], {**ONE_LABEL, "n": 10 ** 12}, ".caps:"),
    # a label is a JSON integer >= 1, never read through int()
    *[case for label in BAD_LABELS for case in (
        (["algebra", "log"], {**ONE_LABEL, "entries": [{"m": [label],
                                                        "re": 1.0}]},
         ".entries[0].m:"),
        (["verify", "thm3", "--config"], _config_payload(
            "sequential-all-coupled", targets=[[1], [label]]), ".targets[1]:"),
        (["weak-values"], _thermal_query(subsets=[[label]]),
         ".subsets[0]:"))],
], ids=["n", "caps", "entries", "entry", "re", "label0", "beta", "seed",
        "targets", "wv-beta", "wv-floor", "wv-observables", "wv-samples",
        "wv-seed", "wv-mode", "wv-subset0", "wv-list",
        *[f"{key}-{value}" for _, key, value in BAD_CONFIG_NUMBERS],
        "wv-beta-inf", "wv-beta-nan", "wv-floor-neg", "wv-psi_i-zero",
        "wv-psi_f-length", "wv-hamiltonian-flag", "wv-unitaries0-flag",
        "wv-psi_i-overflow", "genfun-no-probabilities", "thm3-psi_i-dim",
        "thermal-observables-count", "thm4-observables-count",
        "thm1-unitaries-count",
        *[f"{alias}-no-{key}" for alias, key in MISSING_FIELDS],
        "thm3-pointer-s-dim", "wv-sequential-jet", "wv-unitaries-count",
        "wv-psi_i-dim", "caps-negative", "caps-float", "caps-bool",
        "entry-nan", "entry-1e400",
        *[f"{alias}-{key}-{value}"
          for alias, key, value, _ in MALFORMED_CONFIG_FIELDS],
        "wv-samples-2.5", "wv-samples-0", "wv-seed-2.5", "wv-seed-neg",
        "wv-seed-bool", "n-2.7", "n-bool", "n-string", "n-huge-caps",
        *[f"{field}-label-{label!r}" for label in BAD_LABELS
          for field in ("m", "targets", "wv-subsets")]])
def test_exit_code_2_on_malformed_fields(tmp_path, capsys, argv, payload,
                                         field):
    # a field that cannot be converted is malformed input named in the
    # message, never a traceback (exit 1) or a domain error (exit 3)
    src = write(tmp_path / "in.json", payload)
    assert main([*argv, src, "--out" if argv[0] == "verify" else "-o",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err


@pytest.mark.parametrize("argv, kind", [
    (["algebra", "log"], "directory"), (["report"], "directory"),
    (["algebra", "log"], "not UTF-8"), (["weak-values"], "not UTF-8"),
    (["verify", "thermal", "--config"], "not UTF-8"),
    (["algebra", "log"], "no permission")])
def test_exit_code_2_on_an_unreadable_input(tmp_path, monkeypatch, capsys,
                                            argv, kind):
    # an input path that is a directory, a file that starts with a UTF-16
    # byte-order mark, and one the process may not read are malformed input
    # naming the path, not a traceback with exit 1
    path = tmp_path / "in.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{\x00}\x00")
    if kind == "no permission":        # also when run as root
        def refused(name, *args, **kwargs):
            raise PermissionError(13, "Permission denied", name)
        monkeypatch.setattr(serialization, "open", refused, raising=False)
    out = ["--out", str(tmp_path / "out")] if argv[0] == "verify" else []
    assert main([*argv, str(path), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(path) in err


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
    *[(["algebra", "series", "{fixture}", "--depth", v], {}, "--depth")
      for v in ("0", "-3")],
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
    # each seed and swept value names a report of its own
    (["verify", "thermal", "--seeds", "1,2,1"], {}, "--seeds"),
    (["verify", "thermal", "--seeds", "1..2", "--beta", "1", "1.0"], {},
     "--beta"),
    (["verify", "thm4", "--tau", "0.5", "2", "0.5"], {}, "--tau"),
], ids=["pointers0", "pointers-neg", "sysdim0", "pointer-dim0", "vars0",
        "copies0", "seeds-text", "seeds-empty", "env-tol", "cut-text",
        "depth0", "depth-neg",
        *[f"{where}-tol-{v}" for where in ("verify", "algebra", "env")
          for v in BAD_TOLS],
        *[f"algebra-log-tol-{v}" for v in ("nan", "-1", "abc")],
        *[f"{flag}-{v}" for flag in ("beta", "tau")
          for v in ("nan", "inf", "-inf")],
        "thm4-samples-neg", "thm1-samples-neg", "seeds-twice", "beta-twice",
        "tau-twice"])
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


JSON_SCALARS = (st.none() | st.booleans()
                | st.integers(-2 ** 70, 2 ** 70)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16,
                                   5e-324, 2 ** 63, -2 ** 63 - 1, 2 ** 64])
                | st.text(st.characters(exclude_categories=())))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(st.characters(
                          exclude_categories=()), max_size=4), children,
                          max_size=4)),
    max_leaves=20)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


@given(value=JSON_VALUES)
@settings(max_examples=300, deadline=None)
@example(value={"nested": {"empty": {}, "list": [[], {}, [None, True, False]]},
                "floats": [math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324],
                "ints": [2 ** 63, -2 ** 64], "é\x00\n\"": "\x1f \ud800"})
def test_save_json_writes_the_text_of_json_dumps(json_dir, value):
    # the writer's own encoder gives json.dumps(indent=2)'s bytes for every
    # plain JSON value, the newline after it, and leaves no temp file
    path = json_dir / "value.json"
    save_json(str(path), value)
    assert path.read_bytes() == (json.dumps(value, indent=2) + "\n").encode()
    assert os.listdir(json_dir) == ["value.json"]


@pytest.mark.parametrize("value", [
    (1.5, "a", [2, (3,)]), {"x": np.float64(0.1)}, [np.float64("nan")],
    {1: "int key", None: 2.5, 0.5: True},
], ids=["tuple", "np-float64", "np-nan", "non-str-keys"])
def test_save_json_hands_other_types_to_json(tmp_path, value):
    # a payload holding a type outside plain JSON goes whole to json.dumps
    # and gets its text
    path = tmp_path / "value.json"
    save_json(str(path), value)
    assert path.read_text() == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    {"value": object()}, [np.int64(1)], {"deep": [1.0, {"x": {1, 2}}]}],
    ids=["object", "np-int64", "set"])
def test_save_json_raises_the_error_of_json(tmp_path, value):
    # a value json cannot encode raises json's TypeError, with its message,
    # before any file is created
    with pytest.raises(TypeError) as ours:
        save_json(str(tmp_path / "value.json"), value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)
    assert os.listdir(tmp_path) == []


def test_output_files_take_the_umask_mode(tmp_path):
    # every file the writer makes is created 0o666 less the umask, as
    # open(path, "w") would create it, not mkstemp's 0o600
    fixture = write(tmp_path / "f.json", LOG_FIXTURE)
    old = os.umask(0o022)
    try:
        assert main(["verify", "genfun", "--seeds", "1..2",
                     "--out", str(tmp_path / "out")]) == 0
        assert main(["algebra", "log", fixture, "-o",
                     str(tmp_path / "log.json")]) == 0
    finally:
        os.umask(old)
    files = [tmp_path / "log.json", *(tmp_path / "out").iterdir()]
    assert sorted(p.name for p in files) == [
        "log.json", "manifest_genfun.json", "report_genfun.csv",
        "report_genfun_seed1.json", "report_genfun_seed2.json"]
    assert {oct(p.stat().st_mode & 0o777) for p in files} == {"0o644"}


def _dict_writer_csv(payloads) -> str:
    # the CSV projection of loaded reports, through the stdlib's DictWriter
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=REPORT_CSV_COLUMNS)
    writer.writeheader()
    for payload in payloads:
        for r in payload.get("records", []):
            writer.writerow({"scenario": payload.get("scenario"),
                             "seed": payload.get("seed"),
                             **{key: r.get(key)
                                for key in REPORT_CSV_COLUMNS[2:]}})
    return out.getvalue()


def _json_oracle(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


def test_every_output_is_the_text_of_the_stdlib(tmp_path, capsys):
    # each JSON file and JSON stdout of the commands below is the text
    # json.dumps(indent=2) gives its own value, and each CSV the DictWriter
    # projection of the reports it was made from; the stdlib shares no code
    # with the writer
    fixture = write(tmp_path / "f.json", LOG_FIXTURE)
    series = write(tmp_path / "s.json", {
        "schema": 1, "n": 2, "caps": [2, 1],
        "entries": [{"m": [], "re": 0.25}, {"m": [1], "re": -0.5, "im": 0.1},
                    {"m": [1, 1], "re": 0.3}, {"m": [1, 2], "re": 1e-17}]})
    query = write(tmp_path / "q.json", {
        "schema": 1, "subsets": [[1], [1, 2]],
        "context": {"kind": "evolution", **CONTEXTS["evolution"],
                    "observables": [PAULI_X, PAULI_X]}})

    def run(argv, code=0):
        assert main(argv) == code
        return capsys.readouterr().out

    runs = [(alias, ["--seeds", "1"], 0) for alias in cli.SCENARIO_ALIASES] + [
        ("thm1", ["--pointers", "4", "--seeds", "117"], 1)]
    for alias, flags, code in runs:
        out = tmp_path / f"verify-{alias}-{code}"
        run(["verify", alias, *flags, "--out", str(out)], code)
        manifest = (out / f"manifest_{alias}.json").read_text()
        assert manifest == _json_oracle(manifest)
        paths = [out / name for name in json.loads(manifest)["reports"]]
        texts = [path.read_text() for path in paths]
        assert texts == [_json_oracle(text) for text in texts]
        reports = [json.loads(text) for text in texts]
        assert all(r["passed"] for r in reports) == (code == 0)
        assert (out / f"report_{alias}.csv").read_bytes() == \
            _dict_writer_csv(reports).encode()
        for path, report in zip(paths, reports):
            assert run(["report", str(path)]) == _dict_writer_csv([report])
            target = tmp_path / "one.csv"
            run(["report", str(path), "--csv", str(target)])
            assert target.read_bytes() == _dict_writer_csv([report]).encode()

    for argv in (["algebra", "log", fixture],
                 ["algebra", "series", series, "--depth", "3"],
                 ["algebra", "factorizing-check", fixture, "--cut", "1"],
                 ["weak-values", query]):
        stdout = run(argv)
        assert stdout == _json_oracle(stdout)
        target = tmp_path / "out.json"
        run([*argv, "-o", str(target)])
        assert target.read_text() == stdout


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


@pytest.mark.parametrize("scenario", ["thermal", "thm1", "genfun"])
def test_verify_refuses_an_oversized_simulation_before_allocating(
        tmp_path, scenario):
    # 8 pointers of dimension 2 on a qubit: thermal's spectral states would
    # be 2665 blocks of 256 x 256 (its generator, 8 coupling blocks of
    # 512 x 512, is 32 MiB); thm1 carries a pure jet vector, and the
    # largest pair table of the cumulant of its moments, over 15 of the 16
    # labels of the jet-valued ring (3^15 pairs), is refused first.
    # genfun with 40 variables: the largest pair table of its jet log
    # (6^39 pairs) is refused before the joint pmf (39 PiB at seed 1) is
    # drawn.
    # Run in a child whose address space is capped, so that a missing
    # preflight ends in a MemoryError, not in the host's memory (one BLAS
    # thread keeps the child's own buffers well under the cap).
    figure = {"thermal": "2665 MiB", "thm1": "985.3 MiB",
              "genfun": "2227915756473955677973140996096 lattice pairs"}[
                  scenario]
    size = ["--vars", "40"] if scenario == "genfun" else ["--pointers", "8"]
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "momalg", "verify", scenario, *size,
         "--out", str(tmp_path)], capture_output=True, text=True,
        preexec_fn=cap_memory, timeout=60, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("domain error:") and figure in proc.stderr


@pytest.mark.parametrize("scenario", ["thm1", "thm3"])
def test_verify_refuses_the_sequential_cumulant_ring_before_any_state(
        tmp_path, monkeypatch, capsys, scenario):
    # 8 pointers: the cumulant of the moments, over the 16 labels of the
    # jet-valued ring, would take a pair table of the last 15 labels, 3^15
    # lattice pairs (985 MiB), so the run is refused before the kick chain
    # is evolved
    def no_state(*args):
        raise AssertionError("joint state built despite the ring preflight")

    monkeypatch.setattr(quantum, "evolved_joint_state", no_state)
    assert main(["verify", scenario, "--pointers", "8",
                 "--out", str(tmp_path)]) == 3
    assert "lattice pairs" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, route", [("thermal", "spectral"),
                                             ("thm4", "Taylor")],
                         ids=["thermal", "thm4"])
def test_verify_refuses_an_oversized_exponential_before_allocating(
        tmp_path, scenario, route):
    # 7 pointers of dimension 2 on a qubit: 2^7 blocks of 256 x 256, 128 MiB
    # per jet matrix, within the limit, but the Taylor exponential of the
    # window (thm4) holds q + 2 such stacks, and the spectral one of the
    # thermal Boltzmann jet 809 blocks of states.  The child's address
    # space is capped at 768 MiB, below what the exponential would
    # allocate, so a missing preflight ends in a MemoryError, not in the
    # host's memory.
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
    assert f"held by the {route} exponential" in proc.stderr


JET_RING = ("--pointers", "4", "--sysdim", "2", "--pointer-dim", "2")
DENSE_HILBERT = ("--pointers", "3", "--sysdim", "2", "--pointer-dim", "4")

FAULTS_PER_RUN = """
import contextlib, io, resource, statistics, sys
from momalg.cli import main
faults = []
for k in range(23):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "thermal", *sys.argv[2:], "--seeds",
                     str(1 + k % 5), "--out", sys.argv[1]]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[3:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts minor page faults by getrusage")
def test_same_shape_thermal_runs_fault_in_few_fresh_pages(tmp_path):
    # 20 in-process dense-hilbert thermal runs after 3 warm-ups: the lhs's
    # work arrays are reused from the per-thread workspace, so the median
    # run takes at most 100 minor page faults.  About 990 when each run
    # allocated and freed some 3.4 MB of them and the allocator returned
    # the pages to the system.  The runs go in a fresh child, since large
    # frees earlier in this process move the allocator's trim threshold
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_RUN, str(tmp_path), *DENSE_HILBERT],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 100


@pytest.mark.parametrize("scenario", ["thermal", "thm1"])
def test_pointers_of_one_dimension_run_through_the_moment_reader(
        tmp_path, scenario):
    # each one-dimensional pointer's contraction doubles the moment stack
    # instead of shrinking it; every seed runs and passes
    assert main(["verify", scenario, "--pointers", "2", "--pointer-dim", "1",
                 "--seeds", "1..3", "--out", str(tmp_path)]) == 0
    names = load_json(str(tmp_path / f"manifest_{scenario}.json"))["reports"]
    assert len(names) == 3
    assert all(load_json(str(tmp_path / name))["passed"] for name in names)


def verdicts(out):
    """The passed flag of every report a verify run wrote to `out`."""
    names = load_json(str(out / "manifest_thermal.json"))["reports"]
    return [load_json(str(out / name))["passed"] for name in names]


@pytest.mark.parametrize("shape, seeds", [
    (DENSE_HILBERT, 5), (JET_RING, 25), (("--pointers", "2"), 100), ((), 100),
    (("--pointers", "5"), 10), ((*JET_RING, "--beta", "10"), 25)],
    ids=["dense-hilbert", "jet-ring", "pointers-2", "defaults", "pointers-5",
         "jet-ring-beta-10"])
def test_thermal_fails_when_the_taylor_ring_exponential_is_off(
        tmp_path, monkeypatch, shape, seeds):
    # The joint-space Boltzmann jet (lhs) takes the spectral route and the
    # system-side jet (rhs and rhs_alt) the Taylor route.  A defect of the
    # Taylor route on a ring of more than one monomial, every grade >= 1 of
    # its result scaled by 1 + 1e-6, then moves only the right-hand sides:
    # the spectral route's own Taylor calls, the Opitz batches, are on the
    # one-monomial ring and stay untouched.  Every seed fails.
    real = jets._taylor_exp

    def off(blocks, product, schedule):
        out = real(blocks, product, schedule)
        if len(blocks) > 1:
            out[1:] *= 1 + 1e-6           # every monomial of grade >= 1
        return out

    monkeypatch.setattr(jets, "_taylor_exp", off)
    out = tmp_path / "reports"
    assert main(["verify", "thermal", *shape, "--seeds", f"1..{seeds}",
                 "--out", str(out)]) == 1
    assert verdicts(out) == [False] * seeds


@pytest.mark.parametrize("shape", [JET_RING, ("--pointers", "2"), ()],
                         ids=["jet-ring", "pointers-2", "defaults"])
def test_thermal_fails_when_a_spectral_divided_difference_is_off(
        tmp_path, monkeypatch, shape):
    # The mirror case: a defect of the spectral route moves only the lhs,
    # since the rhs stays on the Taylor route, and every seed fails.  The
    # defect scales one divided difference by 1 + 1e-6: exp[l, l] = e^l at
    # the top cluster l of -beta H_S, the ground state's, which weighs most
    # in e^(-beta H).  At 2 pointers and the defaults both sides took the
    # Taylor route under a cost model, and every such run passed.
    real = jets._exp_divided_differences

    def off(lam, plan):
        table = real(lam, plan)
        table[0][-1, -1] *= 1 + 1e-6      # mid (), the first
        return table

    monkeypatch.setattr(jets, "_exp_divided_differences", off)
    out = tmp_path / "reports"
    assert main(["verify", "thermal", *shape, "--seeds", "1..25",
                 "--out", str(out)]) == 1
    assert verdicts(out) == [False] * 25


@pytest.fixture
def exp_routes(monkeypatch):
    """(route, block dimension) of every jet exponential taken, in call
    order; the batched exponentials of the Opitz matrices are left out."""
    taken = []
    for name in ("_taylor_exp", "_spectral_exp"):
        def spy(blocks, *args, _real=getattr(jets, name), _name=name):
            if blocks.ndim == 3:          # not a batch of Opitz matrices
                taken.append((_name, blocks.shape[-1]))
            return _real(blocks, *args)
        monkeypatch.setattr(jets, name, spy)
    return taken


@pytest.mark.parametrize("shape, beta, seeds, code", [
    ((), "500", "1", 3), (("--sysdim", "4"), "500", "1", 3),
    (JET_RING, "300", "2", 3), (JET_RING, "200", "1..5", 0)],
    ids=["defaults-500", "sysdim4-500", "jet-ring-300", "jet-ring-200"])
def test_verify_thermal_refuses_a_boltzmann_jet_beyond_double_range(
        tmp_path, exp_routes, capsys, shape, beta, seeds, code):
    # e^(-beta H) leaves the double range at these beta: a domain error
    # naming the overflow, exit 3, from the spectral route of the lhs, not
    # a FloatingPointError traceback; beta 200 still passes
    assert main(["verify", "thermal", *shape, "--beta", beta, "--seeds", seeds,
                 "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert ("overflows" in err) == (code == 3)
    if code:
        assert exp_routes[-1][0] == "_spectral_exp"


@pytest.mark.parametrize("scenario, beta", [
    ("thermal", "1e-308"), ("thermal", "6e-309"), ("thermal", "5e-324"),
    ("multiset", "1e-320")])
def test_verify_refuses_a_beta_whose_free_energy_leaves_double_range(
        tmp_path, capsys, scenario, beta):
    # F = -log Z / beta overflows (or is inf * 0) at these beta: one domain
    # error line naming beta, exit 3, not a FloatingPointError traceback
    assert main(["verify", scenario, "--beta", beta, "--seeds", "1",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: beta {float(beta)!r} is too small")
    assert err.count("\n") == 1


@pytest.mark.parametrize("seeds", [["--seeds", "-1"], ["--seeds", "1,-2"],
                                   ["--seeds=-3..2"]],
                         ids=["one", "list", "range"])
def test_verify_refuses_negative_seeds_before_any_run(tmp_path, monkeypatch,
                                                      capsys, seeds):
    # the instance generator takes seeds >= 0: a negative one is malformed
    # input naming --seeds (exit 2), before any verification writes a file
    # and before the output directory is made
    def refused(cfg):
        raise AssertionError("a verification ran before --seeds was checked")
    monkeypatch.setattr(cli, "run_verification", refused)
    out = tmp_path / "out"
    assert main(["verify", "thermal", *seeds, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: --seeds: ")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "-1"], "--seeds: seed -1 is negative"),
    (["--seeds", "3..1"], "--seeds: empty seed range '3..1'"),
    (["--seeds", "1,1"], "--seeds: 1 is given twice"),
    (["--beta", "1", "1"], "--beta: 1.0 is given twice")],
    ids=["negative", "empty-range", "seed-twice", "beta-twice"])
def test_refused_verify_flags_leave_no_output_directory(tmp_path, capsys,
                                                        flags, message):
    # a seed list or sweep that is refused (exit 2) is refused before --out
    # is made: neither the directory nor its missing parent is left behind
    out = tmp_path / "parent" / "out"
    assert main(["verify", "thermal", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not (tmp_path / "parent").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "thermal", "--beta", "-1", "--seeds", "1..3"],
    ["verify", "thermal", "--beta", "1", "0"],
    ["verify", "multiset", "--beta", "-1"]],
    ids=["thermal", "thermal-sweep", "multiset"])
def test_a_refused_beta_leaves_no_output_directory(tmp_path, monkeypatch,
                                                   capsys, argv):
    # a beta that the thermal state refuses is a domain error (exit 3)
    # raised before --out is made or any run starts, one line naming beta
    def refused(cfg):
        raise AssertionError("a verification ran before beta was checked")
    monkeypatch.setattr(cli, "run_verification", refused)
    out = tmp_path / "parent" / "out"
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "domain error: beta must be positive\n"
    assert not (tmp_path / "parent").exists()


def test_multiset_at_beta_zero_runs_without_its_thermal_copies(tmp_path):
    # multiset's thermal copies run only with a nonzero beta: 0 is not
    # refused, and its report holds the two pair-variance records alone
    assert main(["verify", "multiset", "--beta", "0",
                 "--out", str(tmp_path)]) == 0
    rep = load_json(str(tmp_path / "report_multiset_seed1.json"))
    assert [r["label"] for r in rep["records"]] == [
        "pair-variance", "pair-variance-per-subset"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "thermal", "--beta", "nan"],
     "argument --beta: 'nan' is not a finite number"),
    (["verify", "thm4", "--tau", "inf"],
     "argument --tau: 'inf' is not a finite number"),
    (["verify", "thermal", "--tol", "-1"],
     "argument --tol: '-1' is not a finite non-negative number"),
    (["algebra", "log", "f.json", "--tol", "nan"],
     "argument --tol: 'nan' is not a finite number")],
    ids=["beta", "tau", "verify-tol", "algebra-tol"])
def test_a_refused_number_flag_names_its_fault(capsys, argv, message):
    # argparse prints the flag reader's own message (exit 2), not the name
    # of the function behind it
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n") and "_finite" not in err


@pytest.mark.parametrize("op", ["log", "exp", "inverse", "series", "raise",
                                "factorizing-check"])
def test_one_input_algebra_ops_refuse_a_second_input(tmp_path, capsys, op):
    # every op but convolve reads one M-map: a second input is malformed
    # input (exit 2), not silently dropped, and no output is written
    src = write(tmp_path / "f.json", {
        "schema": 1, "n": 2, "entries": [{"m": [], "re": 0.5},
                                         {"m": [1, 2], "re": 0.25}]})
    out = tmp_path / "out.json"
    assert main(["algebra", op, src, src, "--cut", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"input error: {op} takes exactly one input\n"
    assert not out.exists()
    assert main(["algebra", op, src, "--cut", "1", "-o", str(out)]) == 0


@pytest.mark.parametrize("shape, sys_dim, joint_dim", [
    (("--pointers", "2"), 2, 8), ((), 2, 16), (JET_RING, 2, 32),
    (DENSE_HILBERT, 2, 128), (("--sysdim", "4"), 4, 32),
    (("--hs", "zero"), 2, 16)],
    ids=["pointers-2", "defaults", "jet-ring", "dense-hilbert", "sysdim-4",
         "hs-zero"])
def test_thermal_sides_take_the_route_of_their_role(
        tmp_path, exp_routes, shape, sys_dim, joint_dim):
    # per seed: the joint-space Boltzmann jet (lhs) on the spectral route,
    # then the one system-side partition jet (rhs and rhs_alt) on the
    # Taylor route, at every shape
    assert main(["verify", "thermal", *shape, "--seeds", "1..3",
                 "--out", str(tmp_path)]) == 0
    assert exp_routes == [("_spectral_exp", joint_dim),
                          ("_taylor_exp", sys_dim)] * 3


@pytest.mark.parametrize("scenario", ["thm4", "thm2"])
def test_window_and_d_map_take_the_taylor_route(tmp_path, exp_routes,
                                                scenario):
    # the window's joint-space e^(-i tau H) (lhs) and the system-side D map
    # (rhs) are both Taylor: no spectral exponential is taken
    assert main(["verify", scenario, "--seeds", "1..3",
                 "--out", str(tmp_path)]) == 0
    assert {route for route, _ in exp_routes} == {"_taylor_exp"}
    assert {dim for _, dim in exp_routes} >= {2, 16}


def test_thermal_refuses_spectral_states_beyond_the_size_limit(
        tmp_path, capsys):
    # 6 pointers on a 4-dim system: the 256-dim Boltzmann jet's four
    # clusters need 8422 blocks of 64 x 64 (states, sum and work), about
    # 526.4 MiB.  It exits 3 naming the spectral exponential, whose preflight
    # refuses them before any is allocated, and takes no Taylor route
    # instead.
    tracemalloc.start()
    try:
        code = main(["verify", "thermal", "--pointers", "6", "--sysdim", "4",
                     "--seeds", "1", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:")
    assert "held by the spectral exponential" in err
    assert peak < jets.MAX_DENSE_BYTES / 2


@pytest.mark.parametrize("argv, count", [
    (("multiset", "--copies", "30"), 30),
    (("thermal", "--pointers", "30"), 30),
    (("thm4", "--pointers", "30"), 31)], ids=["multiset", "thermal", "thm4"])
def test_verify_prices_the_generator_blocks_before_any_kron(
        tmp_path, capsys, argv, count):
    # 30 qubit pointers on a qubit: the generator's n + 1 blocks (n for the
    # thermal lhs, which holds its constant as a diagonal) are 2^31 x 2^31
    # each, about 2.1e15 MiB.  Each is refused, exit 3, naming the blocks
    # and their size, before any joint-space kron is built
    tracemalloc.start()
    try:
        code = main(["verify", *argv, "--seeds", "1", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:")
    assert f"{count} generator blocks of dimension 2147483648" in err
    assert peak < jets.MAX_DENSE_BYTES / 16


def test_thermal_runs_at_a_shape_whose_full_spectral_states_did_not_fit(
        tmp_path, exp_routes):
    # held at their exact grade and summed through the system trace, the
    # spectral states of 6 pointers on a qutrit (a 192-dim joint space)
    # fit; they were refused when every state held every grade above its
    # level in full.  The lhs still takes the spectral route
    assert main(["verify", "thermal", "--pointers", "6", "--sysdim", "3",
                 "--seeds", "1", "--out", str(tmp_path)]) == 0
    assert exp_routes == [("_spectral_exp", 192), ("_taylor_exp", 3)]


def test_thermal_refuses_a_nonpositive_beta_before_any_exponential(
        tmp_path, exp_routes, capsys):
    # beta is checked before the lhs is built: at a shape whose spectral
    # states the size limit refuses, the error names beta, and no jet
    # exponential is taken at any shape
    for shape in (("--pointers", "6", "--sysdim", "4"), ()):
        for beta in ("-1", "0"):
            assert main(["verify", "thermal", f"--beta={beta}", *shape,
                         "--out", str(tmp_path)]) == 3
            assert "beta must be positive" in capsys.readouterr().err
    assert exp_routes == []
