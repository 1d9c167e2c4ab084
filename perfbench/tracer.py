"""Per-layer tracing of momalg from outside the program.

`Tracer.install()` wraps the public functions of every momalg module and
the public methods of the classes they define, and rebinds each wrapper
wherever the original is looked up: module globals such as
`momalg.experiments.log_star` or `momalg.weakvalues.jet_matrix_exp`, and
dict tables such as `momalg.experiments.VERIFIERS`.  Methods are patched
on the class, so every caller sees them.  Nothing under src/ changes.

A wrapped call is one span (name, start, end, parent, op id).  Spans stay
in memory and are written once, when the run ends.  A layer's self time
is its spans' durations minus the time covered by their wrapped child
spans.  The layers are the module names, with `jets` split four ways:

* `jets.matmul`: `JetMatrix.__matmul__`
* `jets.exp`: `jet_matrix_exp`
* `jets.ring`: `Jet` arithmetic and `Jet.exp/log/inverse`
* `jets.other`: the rest of `momalg.jets`

`Multiset` methods run about 10^6 times per jet-ring op.  They get no
span, so their time counts toward the calling layer; `Multiset.__add__`
is counted but not timed.  Generator functions are consumed inside their
span so that enumeration time lands in `combinatorics`.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import os
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "serialization", "experiments", "weakvalues", "quantum",
           "jets", "algebra", "combinatorics")
LAYERS = ("cli", "serialization", "experiments", "weakvalues", "quantum",
          "jets.matmul", "jets.exp", "jets.ring", "jets.other", "algebra",
          "combinatorics")
JET_RING = frozenset({"__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                      "__rsub__", "__neg__", "__truediv__", "__rtruediv__",
                      "exp", "log", "inverse"})
JET_MATRIX_DUNDERS = frozenset({"__matmul__", "__add__", "__sub__", "__mul__",
                                "__rmul__"})
COUNTS = ("ring_pairs_tried", "ring_pairs_kept", "matmul_block_products",
          "matmul_triples", "matmul_flop", "bytes_written", "partition_terms",
          "partition_cache_hits", "partition_cache_misses", "multiset_add")


class Tracer:
    """Span recorder; create one per process and call `install()` once."""

    def __init__(self, op: int = 0):
        self.op = op
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[list[int]] = []
        self.top_ns = 0
        self.hook_ns = 0
        self.moments_ns = 0
        self.moment_depth = 0
        self.state_bytes_max = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self._adds = itertools.count()
        self._add_reads = 0
        self._mult_rows: dict = {}
        self._pair_masks: dict = {}
        self._jet_cls = self._jet_matrix_cls = self._empty = None
        self._partition_cache = None
        self._cache_base = (0, 0)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, qualname: str, layer: str, hook=None,
              eager: bool = False, moment: bool = False):
        nid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            if moment:
                tracer.moment_depth += 1
            start = clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = tuple(result)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.span_end[sid] = end
                tracer.calls[nid] += 1
                tracer.self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_ns += duration
                if moment:
                    tracer.moment_depth -= 1
                    if not tracer.moment_depth:
                        tracer.moments_ns += duration
            if result.__class__ is tracer._jet_matrix_cls:
                tracer.state_bytes_max = max(tracer.state_bytes_max,
                                             result.blocks.nbytes)
            if hook is not None:
                # Counting work stays out of every layer's self time.
                begin = clock()
                hook(args, result)
                spent = clock() - begin
                tracer.hook_ns += spent
                if stack:
                    stack[-1][1] += spent
                else:
                    tracer.top_ns += spent
            return iter(result) if eager else result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = qualname
        return wrapper

    def _hooks(self) -> dict:
        return {
            "Jet.__mul__": self._ring_pairs,
            "Jet.__rmul__": self._ring_pairs,
            "JetMatrix.__matmul__": self._block_products,
            "save_json": lambda args, _: self._written(args[0]),
            "reports_to_csv": lambda args, _: self._written(args[1]),
            "partitions_of": self._terms,
            "ordered_bipartitions_of": self._terms,
        }

    def install(self) -> None:
        """Wrap momalg in this process.  Call once, after importing it."""
        import momalg.cli  # noqa: F401  (imports every layer)
        from momalg import combinatorics, jets
        self._jet_cls, self._jet_matrix_cls = jets.Jet, jets.JetMatrix
        self._empty = combinatorics.EMPTY
        self._partition_cache = getattr(combinatorics, "_partitions_cached",
                                        None)
        self._cache_base = self._cache_info()
        hooks = self._hooks()
        replaced: dict[int, tuple] = {}
        for mname in MODULES:
            mod = sys.modules[f"momalg.{mname}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(obj, mname, hooks)
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                moment = mname == "experiments" and "moment" in attr
                if attr.startswith("_") and not moment:
                    continue
                layer = mname
                if mname == "jets":
                    layer = "jets.exp" if attr == "jet_matrix_exp" else "jets.other"
                wrapped = self._wrap(
                    obj, attr, layer, hook=hooks.get(attr),
                    eager=inspect.isgeneratorfunction(obj), moment=moment)
                replaced[id(obj)] = (obj, wrapped)
        for name, mod in list(sys.modules.items()):
            if name != "momalg" and not name.startswith("momalg."):
                continue
            if name == "momalg.__main__":
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = replaced.get(id(value))
                        if hit is not None and hit[0] is value:
                            obj[key] = hit[1]

    def _patch_class(self, cls, mname: str, hooks: dict) -> None:
        if cls.__name__ == "Multiset":
            original = cls.__add__
            tick = self._adds.__next__

            def __add__(a, b):
                tick()
                return original(a, b)

            cls.__add__ = __add__
            return
        dunders = {"Jet": JET_RING, "JetMatrix": JET_MATRIX_DUNDERS}.get(
            cls.__name__, frozenset())
        for attr, raw in list(vars(cls).items()):
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and attr not in dunders:
                continue
            qualname = f"{cls.__name__}.{attr}"
            layer = mname
            if mname == "jets":
                if qualname == "JetMatrix.__matmul__":
                    layer = "jets.matmul"
                elif cls.__name__ == "Jet" and attr in JET_RING:
                    layer = "jets.ring"
                else:
                    layer = "jets.other"
            wrapped = self._wrap(fn, qualname, layer, hook=hooks.get(qualname),
                                 eager=inspect.isgeneratorfunction(fn))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    # -- counters ----------------------------------------------------------

    def _mult_matrix(self, keys, n: int) -> np.ndarray:
        rows = []
        for key in keys:
            row = self._mult_rows.get((key, n))
            if row is None:
                row = [0] * n
                for label, mult in key.items:
                    row[label - 1] = mult
                self._mult_rows[(key, n)] = row
            rows.append(row)
        return np.array(rows, dtype=np.int64).reshape(len(rows), n)

    def _ring_pairs(self, args, result) -> None:
        """Pairs tried by a jet product, and pairs its cap test keeps."""
        if result is NotImplemented:
            return
        a, b = args[0], args[1]
        keys_b = list(b.coeffs) if isinstance(b, self._jet_cls) else (
            [self._empty] if b != 0 else [])
        keys_a = list(a.coeffs)
        self.counts["ring_pairs_tried"] += len(keys_a) * len(keys_b)
        if not keys_a or not keys_b:
            return
        ma = self._mult_matrix(keys_a, a.n)
        mb = self._mult_matrix(keys_b, a.n)
        fits = (ma[:, None, :] + mb[None, :, :]) <= np.array(a.caps)
        self.counts["ring_pairs_kept"] += int(fits.all(axis=-1).sum())

    def _block_products(self, args, result) -> None:
        """Non-zero block pairs a jet-matrix product multiplies (computed)."""
        x, y = args[0], args[1]
        mask = self._pair_masks.get(x.caps)
        if mask is None:
            m = self._mult_matrix(x.lattice, x.n)
            mask = ((m[:, None, :] + m[None, :, :]) <= np.array(x.caps)).all(-1)
            self._pair_masks[x.caps] = mask
        size = len(x.lattice)
        nz_x = x.blocks.reshape(size, -1).any(axis=1)
        nz_y = y.blocks.reshape(size, -1).any(axis=1)
        products = int((mask & nz_x[:, None] & nz_y[None, :]).sum())
        self.counts["matmul_block_products"] += products
        self.counts["matmul_triples"] += int(mask.sum())
        self.counts["matmul_flop"] += 8 * x.dim ** 3 * products

    def _written(self, path) -> None:
        self.counts["bytes_written"] += os.path.getsize(path)

    def _terms(self, args, result) -> None:
        self.counts["partition_terms"] += len(result)

    def _cache_info(self):
        info = self._partition_cache and self._partition_cache.cache_info()
        return (info.hits, info.misses) if info else (0, 0)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Totals since install, as plain numbers that merge by addition."""
        counts = dict(self.counts)
        counts["multiset_add"] = next(self._adds) - self._add_reads
        self._add_reads += 1
        hits, misses = self._cache_info()
        counts["partition_cache_hits"] = hits - self._cache_base[0]
        counts["partition_cache_misses"] = misses - self._cache_base[1]
        self_ns = dict.fromkeys(LAYERS, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        calls: dict[str, int] = {}
        for name, layer, n, ns in zip(self.names, self.layer_of, self.calls,
                                      self.self_ns):
            self_ns[layer] += ns
            layer_calls[layer] += n
            if n:
                calls[name] = calls.get(name, 0) + n
        return {"self_ns": self_ns, "calls": calls, "layer_calls": layer_calls,
                "counts": counts, "top_ns": self.top_ns,
                "hook_ns": self.hook_ns,
                "moments_ns": self.moments_ns,
                "state_bytes_max": self.state_bytes_max,
                "spans": len(self.span_start)}

    def write_spans(self, path) -> None:
        """Write this process's spans as a gzip CSV.  Gzip members
        concatenate, so files from several processes join by appending."""
        pid = os.getpid()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,pid,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_op[i]},{pid},{i},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]},{self.span_end[i]}\n")


def merge(summaries) -> dict:
    """Sum span summaries from several processes (max for the peak)."""
    out = None
    for s in summaries:
        if out is None:
            out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in s.items()}
            continue
        for key in ("self_ns", "calls", "layer_calls", "counts"):
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for key in ("top_ns", "hook_ns", "moments_ns", "spans"):
            out[key] += s[key]
        out["state_bytes_max"] = max(out["state_bytes_max"],
                                     s["state_bytes_max"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict, ops: int, op_wall_s: float, untraced_rate: float,
                  import_s: float = 0.0, write_s: float = 0.0) -> dict:
    """The per-layer metrics of one traced run, per op where it applies.

    `op_wall_s` is the traced ops' total wall time without span writing;
    `import_s` the part of it that child processes spent starting up and
    importing momalg; `write_s` the time spent writing spans.
    """
    per_op = 1.0 / ops
    sec = 1e-9 * per_op
    self_s = {layer: s["self_ns"][layer] * sec for layer in LAYERS}
    c = s["counts"]
    calls = s["calls"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s/op")
    m["serialization.bytes_written"] = (c["bytes_written"] * per_op, "B/op")
    m["experiments.moments_s"] = (s["moments_ns"] * sec, "s/op")
    m["weakvalues.calls"] = (s["layer_calls"]["weakvalues"] * per_op, "count/op")
    m["quantum.partial_trace.calls"] = (calls.get("partial_trace", 0) * per_op,
                                        "count/op")
    m["quantum.state_bytes.max"] = (float(s["state_bytes_max"]), "B")
    m["jets.matmul.calls"] = (s["layer_calls"]["jets.matmul"] * per_op, "count/op")
    m["jets.matmul.block_products"] = (c["matmul_block_products"] * per_op,
                                       "count/op")
    m["jets.matmul.useful_ratio"] = (
        _ratio(c["matmul_block_products"], c["matmul_triples"]), "ratio")
    m["jets.matmul.gflop"] = (c["matmul_flop"] * 1e-9 * per_op, "Gflop/op")
    m["jets.exp.calls"] = (s["layer_calls"]["jets.exp"] * per_op, "count/op")
    m["jets.ring.mul_calls"] = (
        (calls.get("Jet.__mul__", 0) + calls.get("Jet.__rmul__", 0)) * per_op,
        "count/op")
    m["jets.ring.useful_pair_ratio"] = (
        _ratio(c["ring_pairs_kept"], c["ring_pairs_tried"]), "ratio")
    m["algebra.partition_terms"] = (c["partition_terms"] * per_op, "count/op")
    m["combinatorics.partition_cache_hit_ratio"] = (
        _ratio(c["partition_cache_hits"],
               c["partition_cache_hits"] + c["partition_cache_misses"]), "ratio")
    m["combinatorics.multiset_add.calls"] = (c["multiset_add"] * per_op,
                                             "count/op")
    m["process.import_s"] = (import_s * per_op, "s/op")
    m["trace.hook_s"] = (s["hook_ns"] * sec, "s/op")
    m["trace.write_s"] = (write_s * per_op, "s/op")
    m["trace.unattributed_s"] = (
        (op_wall_s - import_s - s["top_ns"] * 1e-9) * per_op, "s/op")
    m["trace.overhead_frac"] = (_ratio(untraced_rate * op_wall_s, ops) - 1.0,
                                "ratio")
    m["trace.op_s"] = (op_wall_s * per_op, "s/op")
    return m
