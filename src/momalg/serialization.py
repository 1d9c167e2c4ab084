"""JSON interchange for M-maps, operators, states, contexts and reports.

One format family, all versioned with a "schema": 1 field.  Matrices and
vectors travel as row-major interleaved re/im arrays with a declared
dimension.  M-map entries are listed per multiset ("m" is the sorted
expanded element list); omitted multisets are zero.  Floats survive the
round trip bit-exactly for finite values (json uses shortest repr).

Experiment configs and weak-value contexts are one type, read by one
checked reader through one field table, `_FIELDS`: each field's reader and
writer, in write order.  A config must hold the fields its scenario reads
(`_REQUIRED`); a weak-value context of a kind is read as the config of the
kind's scenario without pointers, so a field is parsed, checked and named
in errors alike in both ("config.psi_i", "context.psi_i").  A state is
normalised unless its norm is already 1 to rounding, so a seeded config
written by `config_to_dict` reads back bit-exactly and `verify --config`
replays it to the report of `verify --seeds`.

Every file and JSON stdout that momalg writes goes through one writer.  A
JSON text is the bytes of `json.dumps(payload, indent=2)` and a newline,
from a small encoder of plain JSON values (`json_text`) that hands any
other payload whole to `json.dumps`; a CSV is `csv.writer` rows.  A file is
encoded in full before it is opened, written to a new file in the target
directory and moved over the target by one `os.replace`, so a reader sees
the old file or the new one, never part of one; it gets the mode
`open(path, "w")` would give it, 0o666 less the umask.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .algebra import MMap
from .combinatorics import Multiset
from .errors import (
    CapExceededError,
    DomainError,
    InputFormatError,
    ShapeMismatchError,
)
from .experiments import ExperimentConfig
from .jets import MAX_DENSE_BYTES, _position, _weights
from .quantum import PointerSpec, checked_operator, unit_vector

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


class _NotPlain(Exception):
    """A value that `_json` leaves to `json.dumps`."""


_INF = float("inf")


def _json(value, indent: str) -> str:
    """`json.dumps(value, indent=2)` for a value built of dicts with str
    keys, lists, strs, ints, floats, bools and None, those exact types, at
    the nesting that `indent` (a newline and two spaces per level) gives;
    any other value raises `_NotPlain`."""
    kind = type(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    if kind is str:
        return _escape(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise _NotPlain
            items.append(_escape(key) + ": " + _json(item, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join([_json(item, inner)
                                                  for item in value])
                + indent + "]")
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise _NotPlain


def json_text(payload) -> str:
    """`json.dumps(payload, indent=2)` and a newline, the text of every
    JSON file and JSON stdout of momalg.  A payload holding any other type
    than `_json` encodes (a tuple, a numpy scalar, an int subclass, a
    non-str key), or nested past the recursion limit, goes whole to
    `json.dumps`, whose text or error it gets."""
    try:
        return _json(payload, "\n") + "\n"
    except (_NotPlain, RecursionError):
        return json.dumps(payload, indent=2) + "\n"


def _atomic_write(path: str, data: bytes) -> None:
    """`data` as the file `path`: written to a new file of a random name in
    the target directory, created with mode 0o666 less the umask as
    `open(path, "w")` would, which then replaces `path`; the new file is
    removed if any step fails.  A path that cannot be written (a
    directory, or under a file) is malformed input naming it."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        name = os.path.join(directory, f".{os.urandom(8).hex()}.tmp")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from exc
        raise


def save_json(path: str, payload: dict) -> None:
    """`payload` as the file `path`: the bytes of
    `json.dumps(payload, indent=2)` and a newline (`json_text`), encoded in
    full before any file is opened, then written atomically
    (`_atomic_write`) with the umask's mode.  A payload json cannot encode
    raises json's error and leaves no file."""
    _atomic_write(path, json_text(payload).encode())


def _object(value, where: str) -> dict:
    """`value`, which must be a JSON object; `where` names it in errors."""
    if not isinstance(value, dict):
        raise InputFormatError(f"{where}: expected an object")
    return value


def _require(payload: dict, key: str, where: str):
    if key not in _object(payload, where):
        raise InputFormatError(f"{where}.{key}: missing required field")
    return payload[key]


def _parse(convert, value, field: str):
    """convert(value); a value it cannot take is malformed input naming
    `field`."""
    try:
        return convert(value)
    except (TypeError, ValueError, FloatingPointError, DomainError) as exc:
        raise InputFormatError(f"{field}: {exc}") from exc


def _finite(value) -> float:
    """float(value), refusing NaN and +-inf."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _integer(value, low: int = 0) -> int:
    """A JSON integer >= low; a bool, a float or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{value!r} is not an integer >= {low}")
    return value


def _labels(value) -> Multiset:
    """The multiset of a JSON list of labels, each an integer >= 1."""
    return Multiset(_integer(label, 1) for label in value)


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
    values = (f.jet._vec * _weights(f.caps)).tolist()
    entries = [{"m": list(a.elements()), "re": v.real, "im": v.imag}
               for a in f.domain() if (v := values[_position(f.caps, a)]) != 0]
    return {"schema": SCHEMA, "n": f.n, "caps": list(f.caps),
            "entries": entries}


def mmap_from_dict(payload: dict, where: str = "mmap") -> MMap:
    """The M-map of `payload`.  Its caps default to 1 per label, priced
    from n alone (2^n entries of 16 bytes) before they are formed."""
    n = _parse(_integer, _require(payload, "n", where), f"{where}.n")
    if "caps" in payload:
        caps = _parse(lambda v: tuple(map(_integer, v)), payload["caps"],
                      f"{where}.caps")
        if len(caps) != n:
            raise InputFormatError(
                f"{where}.caps: {len(caps)} given, {n} needed")
    elif n >= MAX_DENSE_BYTES.bit_length() or 16 * 2 ** n > MAX_DENSE_BYTES:
        raise DomainError(f"{where}.n: 2^{n} subsets are above the "
                          f"{MAX_DENSE_BYTES / 2 ** 20:.0f} MiB size limit")
    else:
        caps = (1,) * n
    entries = {}
    items = _parse(list, _require(payload, "entries", where), f"{where}.entries")
    for i, item in enumerate(items):
        at = f"{where}.entries[{i}]"
        m = _parse(_labels, _require(item, "m", at), f"{at}.m")
        entries[m] = _parse(lambda it: complex(_finite(it.get("re", 0.0)),
                                               _finite(it.get("im", 0.0))),
                            item, at)
    try:
        return MMap(n, entries, caps)
    except (ShapeMismatchError, CapExceededError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# vectors, matrices and pointers


def array_to_dict(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=complex)
    return {"dim": arr.shape[0], "data": arr.reshape(-1).view(float).tolist()}


def _complex_array(payload: dict, where: str, rank: int) -> np.ndarray:
    """The complex array with `rank` axes of length "dim" whose entries
    "data" holds as row-major interleaved re/im reals."""
    dim = _parse(int, _require(payload, "dim", where), f"{where}.dim")
    data = _parse(lambda v: np.ascontiguousarray(v, dtype=float),
                  _require(payload, "data", where), f"{where}.data")
    if data.shape != (2 * dim ** rank,):
        raise InputFormatError(f"{where}: expected {2 * dim ** rank} reals, "
                               f"got {data.size}")
    return data.view(complex).reshape((dim,) * rank)


def vector_from_dict(payload: dict, where: str = "state") -> np.ndarray:
    return _parse(unit_vector, _complex_array(payload, where, 1), where)


def matrix_from_dict(payload: dict, where: str = "operator") -> np.ndarray:
    return _parse(lambda mat: checked_operator(
        mat, hermitian=bool(payload.get("hermitian", False)),
        unitary=bool(payload.get("unitary", False))),
        _complex_array(payload, where, 2), where)


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
# the field table of experiment configs and weak-value contexts


def _listed(read, write):
    """The (reader, writer) of a list field, element by element, each
    element named by its index."""
    return (lambda values, at: tuple(read(v, f"{at}[{i}]")
                                     for i, v in enumerate(values)),
            lambda values: [write(v) for v in values])


def _multiset_elements(t) -> list:
    return list((t if isinstance(t, Multiset) else Multiset(t)).elements())


_MATRIX = (matrix_from_dict, array_to_dict)
_STATE = (vector_from_dict, array_to_dict)
_NUMBER = (lambda v, at: _finite(v), float)
_GATE = (lambda v, at: _finite_tolerance(v), float)
_INTEGER = (lambda v, at: _integer(v), int)
_REALS = (lambda v, at: np.asarray(v, dtype=float),
          lambda v: np.asarray(v, dtype=float).tolist())

# Every field of a config and of a context: name -> (reader, writer), in
# write order.  reader(value, at) parses the JSON value of the field named
# `at` in errors; writer(value) gives it back.
_FIELDS = {
    "seed": _INTEGER,
    "tolerance": _GATE, "mutual_tolerance": _GATE, "floor": _GATE,
    "psi_i": _STATE, "psi_f": _STATE,
    "unitaries": _listed(*_MATRIX), "hamiltonian": _MATRIX,
    "tau": _NUMBER, "beta": _NUMBER,
    "pointers": _listed(pointer_from_dict, pointer_to_dict),
    "observables": _listed(*_MATRIX),
    "copies": _listed(lambda v, at: _parse(lambda c: _integer(c, 1), v, at),
                      int),
    "targets": _listed(lambda v, at: _parse(_labels, v, at),
                       _multiset_elements),
    "outcome_values": _listed(*_REALS), "probabilities": _REALS,
    "mc_samples": _INTEGER,
}

# The fields each scenario reads that have no default (the README's "read
# by" column): a config lacks none of them.  A weak-value context of kind k
# is read as the config of the scenario _CONTEXT_SCENARIOS[k], without
# pointers.
_SEQUENTIAL = ("psi_i", "psi_f", "unitaries", "pointers", "observables")
_REQUIRED = {
    "sequential-per-subset": _SEQUENTIAL,
    "sequential-all-coupled": _SEQUENTIAL,
    "simultaneous-evolution": ("psi_i", "psi_f", "hamiltonian", "tau",
                               "pointers", "observables"),
    "thermal": ("hamiltonian", "beta", "pointers", "observables"),
    "multiset": ("psi_i", "psi_f", "hamiltonian", "pointers", "observables"),
    "genfun": ("outcome_values", "probabilities"),
}
_CONTEXT_SCENARIOS = {"sequential": "sequential-all-coupled",
                      "evolution": "simultaneous-evolution",
                      "thermal": "thermal"}


def _read_config(payload: dict, scenario: str, where: str,
                 pointers: bool) -> ExperimentConfig:
    """The config of `scenario` that `payload` holds, once it has every
    field of `_REQUIRED[scenario]` (but "pointers" if `pointers` is false),
    its lists have the lengths its count n gives (n observables and, in the
    kick chain, n + 1 unitaries; n counts the pointers, the copy counts in
    the multiset scenario, or, without pointers, the observables), its
    system arrays the dimension of the first, and each pointer's s and r
    the dimension of its phi.  Each target is a nonempty multiset on the
    lattice its scenario's claims read: labels 1..n at multiplicity 1, or
    in genfun the caps its copies give (2 per variable by default, else
    one copy count per variable); the multiset scenario reads no targets.
    A field that does not is malformed input naming it, `where.field`."""
    required = _REQUIRED.get(scenario, ()) if isinstance(scenario, str) else ()
    for key in required:
        if pointers or key != "pointers":
            _require(payload, key, where)
    fields = {key: _parse(lambda v: read(v, f"{where}.{key}"), payload[key],
                          f"{where}.{key}")
              for key, (read, _) in _FIELDS.items() if key in payload}
    cfg = _parse(lambda f: ExperimentConfig(scenario, **f), fields, where)
    n = (len(cfg.copies or (2,)) if scenario == "multiset" else
         cfg.n_pointers if pointers else len(cfg.observables))
    sizes = {"observables": n,
             "unitaries": n + 1 if scenario.startswith("sequential") else 0}
    wrong = [f"{key}: {len(getattr(cfg, key))} given, {size} needed"
             for key, size in sizes.items() if len(getattr(cfg, key)) != size]
    groups = [[(f"{key}[{i}]", a) for key in sizes
               for i, a in enumerate(getattr(cfg, key))] + [
        (key, getattr(cfg, key)) for key in ("hamiltonian", "psi_i", "psi_f")
        if getattr(cfg, key) is not None]] + [
        [(f"pointers[{i}].{key}", getattr(p, key)) for key in ("phi", "s", "r")]
        for i, p in enumerate(cfg.pointers)]
    wrong += [f"{key}: dimension {len(a)}, but {group[0][0]} has "
              f"{len(group[0][1])}" for group in groups for key, a in group
              if len(a) != len(group[0][1])]
    variables = len(cfg.outcome_values)
    caps = (1,) * n if scenario != "genfun" else cfg.copies or (2,) * variables
    if scenario == "genfun" and len(caps) != variables:
        wrong.append(f"copies: {len(caps)} given, {variables} needed")
    if scenario != "multiset":
        wrong += [f"targets[{i}]: {t} is not a nonempty multiset on the "
                  f"caps {caps}" for i, t in enumerate(cfg.targets)
                  if t.is_empty or not t.fits(caps)]
    if wrong:
        raise InputFormatError(f"{where}.{wrong[0]}")
    return cfg


def context_from_dict(payload: dict) -> tuple[str, ExperimentConfig]:
    """The kind of a weak-value context and the config it is read as: that
    of its kind's scenario, without pointers, through the checks of
    `config_from_dict`; errors name `context.<field>`."""
    kind = _require(payload, "kind", "context")
    if not isinstance(kind, str) or kind not in _CONTEXT_SCENARIOS:
        raise InputFormatError(f"context.kind: unknown kind {kind!r}")
    return kind, _read_config(payload, _CONTEXT_SCENARIOS[kind], "context",
                              pointers=False)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Every field of `cfg` that is set (not None, not empty), through its
    writer."""
    out = {"schema": SCHEMA, "scenario": cfg.scenario}
    for key, (_, write) in _FIELDS.items():
        value = getattr(cfg, key)
        if value is not None and not (isinstance(value, tuple) and not value):
            out[key] = write(value)
    return out


def config_from_dict(payload: dict, where: str = "config") -> ExperimentConfig:
    """The config of `payload`, which names its scenario, read and checked
    by `_read_config`."""
    return _read_config(payload, _require(payload, "scenario", where), where,
                        pointers=True)


# ---------------------------------------------------------------------------
# reports


REPORT_CSV_COLUMNS = ("scenario", "seed", "label", "subset", "lhs_re",
                      "lhs_im", "rhs_re", "rhs_im", "abs_error", "rel_error",
                      "passed")


def report_csv(payloads) -> str:
    """The CSV projection of serialized reports: a header of
    `REPORT_CSV_COLUMNS`, then one row per record, lines ending in CRLF."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(REPORT_CSV_COLUMNS)
    for payload in payloads:
        writer.writerows(report_rows_from_json(payload))
    return text.getvalue()


def reports_to_csv(payloads, path: str) -> None:
    """`report_csv(payloads)` as the file `path`, UTF-8, encoded in full
    before any file is opened, then written atomically (`_atomic_write`)
    with the umask's mode."""
    _atomic_write(path, report_csv(payloads).encode())


def report_from_dict(payload, where: str) -> dict:
    """`payload`, a serialized report: an object whose "records", if it has
    any, are a list of objects.  Anything else is malformed input naming
    `where`, `where.records` or `where.records[i]`."""
    records = _object(payload, where).get("records", [])
    if not isinstance(records, list):
        raise InputFormatError(f"{where}.records: expected a list")
    for i, record in enumerate(records):
        _object(record, f"{where}.records[{i}]")
    return payload


def report_rows_from_json(payload: dict):
    """CSV rows of a serialized report, one list of the values of
    `REPORT_CSV_COLUMNS` per record; a missing field is written empty."""
    head = [payload.get("scenario"), payload.get("seed")]
    for r in payload.get("records", []):
        yield head + [r.get(key) for key in REPORT_CSV_COLUMNS[2:]]
