"""JSON interchange for M-maps, operators, states, contexts and reports.

One format family, all versioned with a "schema": 1 field.  Matrices and
vectors travel as row-major interleaved re/im arrays with a declared
dimension.  M-map entries are listed per multiset ("m" is the sorted
expanded element list); omitted multisets are zero.  Floats survive the
round trip bit-exactly for finite values (json uses shortest repr).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

import numpy as np

from .algebra import MMap
from .combinatorics import Multiset
from .errors import CapExceededError, InputFormatError, ShapeMismatchError
from .experiments import ExperimentConfig
from .quantum import PointerSpec, QOperator, QState
from .weakvalues import WeakValueContext

SCHEMA = 1


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputFormatError(f"{path}: no such file") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def save_json(path: str, payload: dict) -> None:
    """Atomic write: temp file in the target directory, then replace."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(payload: dict, key: str, where: str):
    if key not in payload:
        raise InputFormatError(f"{where}: missing required field {key!r}")
    return payload[key]


# ---------------------------------------------------------------------------
# M-maps


def mmap_to_dict(f: MMap) -> dict:
    entries = []
    for a in f.domain():
        v = f(a)
        v = complex(v)
        if v == 0:
            continue
        entries.append({"m": list(a.elements()), "re": v.real, "im": v.imag})
    return {"schema": SCHEMA, "n": f.n, "caps": list(f.caps),
            "entries": entries}


def mmap_from_dict(payload: dict, where: str = "mmap") -> MMap:
    n = int(_require(payload, "n", where))
    caps = tuple(int(c) for c in payload.get("caps", [1] * n))
    entries = {}
    for item in _require(payload, "entries", where):
        m = Multiset(_require(item, "m", where))
        entries[m] = complex(float(item.get("re", 0.0)),
                             float(item.get("im", 0.0)))
    try:
        return MMap(n, entries, caps)
    except (ShapeMismatchError, CapExceededError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# vectors and matrices


def array_to_dict(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=complex)
    data = np.empty(arr.size * 2)
    flat = arr.reshape(-1)
    data[0::2] = flat.real
    data[1::2] = flat.imag
    return {"dim": arr.shape[0], "data": data.tolist()}


def vector_from_dict(payload: dict, where: str = "state") -> np.ndarray:
    dim = int(_require(payload, "dim", where))
    data = np.asarray(_require(payload, "data", where), dtype=float)
    if data.shape[0] != 2 * dim:
        raise InputFormatError(f"{where}: expected {2 * dim} reals, "
                               f"got {data.shape[0]}")
    vec = data[0::2] + 1j * data[1::2]
    try:
        return QState(vec).array
    except Exception as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def matrix_from_dict(payload: dict, where: str = "operator") -> np.ndarray:
    dim = int(_require(payload, "dim", where))
    data = np.asarray(_require(payload, "data", where), dtype=float)
    if data.shape[0] != 2 * dim * dim:
        raise InputFormatError(f"{where}: expected {2 * dim * dim} reals, "
                               f"got {data.shape[0]}")
    mat = (data[0::2] + 1j * data[1::2]).reshape(dim, dim)
    try:
        return QOperator(mat, hermitian=bool(payload.get("hermitian", False)),
                         unitary=bool(payload.get("unitary", False))).array
    except Exception as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# weak-value query contexts


def context_from_dict(payload: dict) -> WeakValueContext:
    kind = _require(payload, "kind", "context")
    observables = [matrix_from_dict(o, f"context.observables[{i}]")
                   for i, o in enumerate(_require(payload, "observables",
                                                  "context"))]
    floor = float(payload.get("floor", 1e-8))
    if kind == "sequential":
        return WeakValueContext.sequential(
            vector_from_dict(_require(payload, "psi_i", "context"), "psi_i"),
            vector_from_dict(_require(payload, "psi_f", "context"), "psi_f"),
            [matrix_from_dict(u, f"context.unitaries[{i}]")
             for i, u in enumerate(_require(payload, "unitaries", "context"))],
            observables, floor=floor)
    if kind == "evolution":
        return WeakValueContext.evolution(
            vector_from_dict(_require(payload, "psi_i", "context"), "psi_i"),
            vector_from_dict(_require(payload, "psi_f", "context"), "psi_f"),
            matrix_from_dict(_require(payload, "hamiltonian", "context"),
                             "hamiltonian"),
            float(_require(payload, "tau", "context")),
            observables, floor=floor)
    if kind == "thermal":
        return WeakValueContext.thermal(
            matrix_from_dict(_require(payload, "hamiltonian", "context"),
                             "hamiltonian"),
            float(_require(payload, "beta", "context")),
            observables)
    raise InputFormatError(f"context: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# pointers and explicit experiment configs


def pointer_from_dict(payload: dict, where: str = "pointer") -> PointerSpec:
    return PointerSpec(
        phi=vector_from_dict(_require(payload, "phi", where), f"{where}.phi"),
        s=matrix_from_dict(_require(payload, "s", where), f"{where}.s"),
        r=matrix_from_dict(_require(payload, "r", where), f"{where}.r"),
    )


def pointer_to_dict(p: PointerSpec) -> dict:
    return {"phi": array_to_dict(p.phi), "s": array_to_dict(p.s),
            "r": array_to_dict(p.r)}


# ---------------------------------------------------------------------------
# reports


REPORT_CSV_COLUMNS = ("scenario", "seed", "label", "subset", "lhs_re",
                      "lhs_im", "rhs_re", "rhs_im", "abs_error", "rel_error",
                      "passed")


def reports_to_csv(reports, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_CSV_COLUMNS)
            writer.writeheader()
            for rep in reports:
                for row in rep.csv_rows():
                    writer.writerow(row)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_rows_from_json(payload: dict):
    """CSV projection of an already-serialized report."""
    for r in payload.get("records", []):
        yield {
            "scenario": payload.get("scenario", ""),
            "seed": payload.get("seed", ""),
            "label": r.get("label", ""),
            "subset": r.get("subset", ""),
            "lhs_re": r.get("lhs_re"), "lhs_im": r.get("lhs_im"),
            "rhs_re": r.get("rhs_re"), "rhs_im": r.get("rhs_im"),
            "abs_error": r.get("abs_error"),
            "rel_error": r.get("rel_error"),
            "passed": r.get("passed"),
        }


# ---------------------------------------------------------------------------
# experiment configs (explicit-matrix form; generator form stays on the CLI)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {"schema": SCHEMA, "scenario": cfg.scenario,
           "tolerance": cfg.tolerance, "floor": cfg.floor}
    if cfg.seed is not None:
        out["seed"] = cfg.seed
    if cfg.psi_i is not None:
        out["psi_i"] = array_to_dict(cfg.psi_i)
    if cfg.psi_f is not None:
        out["psi_f"] = array_to_dict(cfg.psi_f)
    if cfg.unitaries:
        out["unitaries"] = [array_to_dict(u) for u in cfg.unitaries]
    if cfg.hamiltonian is not None:
        out["hamiltonian"] = array_to_dict(cfg.hamiltonian)
    if cfg.tau is not None:
        out["tau"] = cfg.tau
    if cfg.beta is not None:
        out["beta"] = cfg.beta
    if cfg.pointers:
        out["pointers"] = [pointer_to_dict(p) for p in cfg.pointers]
    if cfg.observables:
        out["observables"] = [array_to_dict(a) for a in cfg.observables]
    if cfg.copies:
        out["copies"] = list(cfg.copies)
    if cfg.targets:
        out["targets"] = [list(t.elements()) for t in
                          (Multiset(t) if not isinstance(t, Multiset) else t
                           for t in cfg.targets)]
    if cfg.outcome_values:
        out["outcome_values"] = [list(map(float, v))
                                 for v in cfg.outcome_values]
        out["probabilities"] = [float(p) for p in cfg.probabilities]
    if cfg.mc_samples:
        out["mc_samples"] = cfg.mc_samples
    return out


def config_from_dict(payload: dict, where: str = "config") -> ExperimentConfig:
    scenario = _require(payload, "scenario", where)
    kwargs = {"scenario": scenario}
    if "psi_i" in payload:
        kwargs["psi_i"] = vector_from_dict(payload["psi_i"], f"{where}.psi_i")
    if "psi_f" in payload:
        kwargs["psi_f"] = vector_from_dict(payload["psi_f"], f"{where}.psi_f")
    if "unitaries" in payload:
        kwargs["unitaries"] = tuple(
            matrix_from_dict(u, f"{where}.unitaries[{i}]")
            for i, u in enumerate(payload["unitaries"]))
    if "hamiltonian" in payload:
        kwargs["hamiltonian"] = matrix_from_dict(payload["hamiltonian"],
                                                 f"{where}.hamiltonian")
    if "pointers" in payload:
        kwargs["pointers"] = tuple(
            pointer_from_dict(p, f"{where}.pointers[{i}]")
            for i, p in enumerate(payload["pointers"]))
    if "observables" in payload:
        kwargs["observables"] = tuple(
            matrix_from_dict(a, f"{where}.observables[{i}]")
            for i, a in enumerate(payload["observables"]))
    if "outcome_values" in payload:
        kwargs["outcome_values"] = tuple(
            np.asarray(v, dtype=float) for v in payload["outcome_values"])
        kwargs["probabilities"] = np.asarray(
            _require(payload, "probabilities", where), dtype=float)
    if "targets" in payload:
        kwargs["targets"] = tuple(Multiset(t) for t in payload["targets"])
    for key in ("tau", "beta", "tolerance", "mutual_tolerance", "floor"):
        if key in payload:
            kwargs[key] = float(payload[key])
    for key in ("seed", "mc_samples"):
        if key in payload:
            kwargs[key] = int(payload[key])
    if "copies" in payload:
        kwargs["copies"] = tuple(int(c) for c in payload["copies"])
    try:
        return ExperimentConfig(**kwargs)
    except InputFormatError:
        raise
    except Exception as exc:
        raise InputFormatError(f"{where}: {exc}") from exc
