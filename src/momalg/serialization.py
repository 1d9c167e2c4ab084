"""JSON interchange for M-maps, operators, states, contexts and reports.

One format family, all versioned with a "schema": 1 field.  Matrices and
vectors travel as row-major interleaved re/im arrays with a declared
dimension.  M-map entries are listed per multiset ("m" is the sorted
expanded element list); omitted multisets are zero.  Floats survive the
round trip bit-exactly for finite values (json uses shortest repr).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import tempfile

import numpy as np

from .algebra import MMap
from .combinatorics import Multiset
from .errors import (
    DEFAULT_FLOOR,
    CapExceededError,
    DomainError,
    InputFormatError,
    ShapeMismatchError,
)
from .experiments import ExperimentConfig
from .jets import _pair_table, _position
from .quantum import PointerSpec, QOperator, QState
from .weakvalues import WeakValueContext

SCHEMA = 1


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputFormatError(f"{path}: no such file") from exc
    except OSError as exc:        # a directory, a file it may not read
        raise InputFormatError(
            f"{path}: cannot read this path: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: byte {exc.start} "
                               f"({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def _unwritable(path: str, exc: OSError) -> InputFormatError:
    return InputFormatError(
        f"{path}: cannot write to this path: {exc.strerror or exc}")


def make_directory(path: str) -> None:
    """os.makedirs(path, exist_ok=True); a path that cannot be a directory
    (an existing file, or a file among its parents) is malformed input
    naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text stream for `path` on a temp file in the target directory: it
    replaces `path` when the block ends and is removed if the block raises.
    A path that cannot be written (a directory, or under a file) is
    malformed input naming it."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from exc
        raise


def save_json(path: str, payload: dict) -> None:
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _require(payload: dict, key: str, where: str):
    if not isinstance(payload, dict):
        raise InputFormatError(f"{where}: expected an object")
    if key not in payload:
        raise InputFormatError(f"{where}: missing required field {key!r}")
    return payload[key]


def _parse(convert, value, field: str):
    """convert(value); a value it cannot take is malformed input naming
    `field`."""
    try:
        return convert(value)
    except (TypeError, ValueError, DomainError) as exc:
        raise InputFormatError(f"{field}: {exc}") from exc


def _finite(value) -> float:
    """float(value), refusing NaN and +-inf."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _finite_tolerance(value) -> float:
    """A finite number >= 0: no record passes a NaN or negative gate, and
    every record passes an infinite one."""
    tol = _finite(value)
    if tol < 0:
        raise ValueError(f"{value!r} is not a finite non-negative number")
    return tol


# ---------------------------------------------------------------------------
# M-maps


def mmap_to_dict(f: MMap) -> dict:
    """The nonzero entries by size, read in one pass over the dense array;
    maps with jet values have no JSON form."""
    if f.jet_caps:
        raise TypeError("jet-valued M-maps are not serialisable")
    values = (f._data[:, 0] * _pair_table(f.caps).weight).tolist()
    entries = [{"m": list(a.elements()), "re": v.real, "im": v.imag}
               for a in f.domain() if (v := values[_position(f.caps, a)]) != 0]
    return {"schema": SCHEMA, "n": f.n, "caps": list(f.caps),
            "entries": entries}


def mmap_from_dict(payload: dict, where: str = "mmap") -> MMap:
    n = _parse(int, _require(payload, "n", where), f"{where}.n")
    caps = _parse(lambda v: tuple(int(c) for c in v),
                  payload.get("caps", [1] * n), f"{where}.caps")
    entries = {}
    items = _parse(list, _require(payload, "entries", where), f"{where}.entries")
    for i, item in enumerate(items):
        at = f"{where}.entries[{i}]"
        m = _parse(Multiset, _require(item, "m", at), f"{at}.m")
        entries[m] = _parse(lambda it: complex(float(it.get("re", 0.0)),
                                               float(it.get("im", 0.0))),
                            item, at)
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
    dim = _parse(int, _require(payload, "dim", where), f"{where}.dim")
    data = _parse(lambda v: np.asarray(v, dtype=float),
                  _require(payload, "data", where), f"{where}.data")
    if data.shape[0] != 2 * dim:
        raise InputFormatError(f"{where}: expected {2 * dim} reals, "
                               f"got {data.shape[0]}")
    vec = data[0::2] + 1j * data[1::2]
    try:
        return QState(vec).array
    except Exception as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def matrix_from_dict(payload: dict, where: str = "operator") -> np.ndarray:
    dim = _parse(int, _require(payload, "dim", where), f"{where}.dim")
    data = _parse(lambda v: np.asarray(v, dtype=float),
                  _require(payload, "data", where), f"{where}.data")
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
                   for i, o in enumerate(_parse(
                       list, _require(payload, "observables", "context"),
                       "context.observables"))]
    floor = _parse(_finite_tolerance, payload.get("floor", DEFAULT_FLOOR),
                   "context.floor")
    if kind == "sequential":
        return WeakValueContext.sequential(
            vector_from_dict(_require(payload, "psi_i", "context"), "psi_i"),
            vector_from_dict(_require(payload, "psi_f", "context"), "psi_f"),
            [matrix_from_dict(u, f"context.unitaries[{i}]")
             for i, u in enumerate(_parse(
                 list, _require(payload, "unitaries", "context"),
                 "context.unitaries"))],
            observables, floor=floor)
    if kind == "evolution":
        return WeakValueContext.evolution(
            vector_from_dict(_require(payload, "psi_i", "context"), "psi_i"),
            vector_from_dict(_require(payload, "psi_f", "context"), "psi_f"),
            matrix_from_dict(_require(payload, "hamiltonian", "context"),
                             "hamiltonian"),
            _parse(_finite, _require(payload, "tau", "context"), "context.tau"),
            observables, floor=floor)
    if kind == "thermal":
        return WeakValueContext.thermal(
            matrix_from_dict(_require(payload, "hamiltonian", "context"),
                             "hamiltonian"),
            _parse(_finite, _require(payload, "beta", "context"),
                   "context.beta"),
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


def write_report_rows(fh, payloads) -> None:
    """The CSV projection of serialized reports to the stream `fh`."""
    writer = csv.DictWriter(fh, fieldnames=REPORT_CSV_COLUMNS)
    writer.writeheader()
    for payload in payloads:
        writer.writerows(report_rows_from_json(payload))


def reports_to_csv(payloads, path: str) -> None:
    with _atomic_open(path) as fh:
        write_report_rows(fh, payloads)


def report_rows_from_json(payload: dict):
    """CSV rows of a serialized report, one per record; a missing field is
    written empty."""
    for r in payload.get("records", []):
        yield {"scenario": payload.get("scenario"), "seed": payload.get("seed"),
               **{key: r.get(key) for key in REPORT_CSV_COLUMNS[2:]}}


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


def _listed(parse):
    """A list field parsed element by element, each named by its index."""
    return lambda values, at: tuple(parse(v, f"{at}[{i}]")
                                    for i, v in enumerate(values))


_CONFIG_FIELDS = {
    "psi_i": vector_from_dict, "psi_f": vector_from_dict,
    "unitaries": _listed(matrix_from_dict), "hamiltonian": matrix_from_dict,
    "pointers": _listed(pointer_from_dict),
    "observables": _listed(matrix_from_dict),
    "outcome_values": _listed(lambda v, at: np.asarray(v, dtype=float)),
    "probabilities": lambda v, at: np.asarray(v, dtype=float),
    "targets": _listed(lambda v, at: Multiset(v)),
    **dict.fromkeys(("tau", "beta"), lambda v, at: _finite(v)),
    **dict.fromkeys(("tolerance", "mutual_tolerance", "floor"),
                    lambda v, at: _finite_tolerance(v)),
    "seed": lambda v, at: int(v), "mc_samples": lambda v, at: int(v),
    "copies": lambda v, at: tuple(int(c) for c in v),
}


def config_from_dict(payload: dict, where: str = "config") -> ExperimentConfig:
    kwargs = {"scenario": _require(payload, "scenario", where)}
    if "outcome_values" in payload:
        _require(payload, "probabilities", where)
    for key, parse in _CONFIG_FIELDS.items():
        if key in payload:
            at = f"{where}.{key}"
            kwargs[key] = _parse(lambda v: parse(v, at), payload[key], at)
    try:
        return ExperimentConfig(**kwargs)
    except InputFormatError:
        raise
    except Exception as exc:
        raise InputFormatError(f"{where}: {exc}") from exc
