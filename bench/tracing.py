"""Per-layer tracing from outside the program.

Wrappers replace fockpoisson's public functions and methods at every module
and class that binds them, so a call made through any name is seen.  Calls
into engines become spans (name, start, end, parent id) kept in memory; hot
calls (``stats``, MultiPoly arithmetic, Fock mat-vecs) only add to aggregate
counters, because a span per call would cost more than the call.  A
generator's span covers only the time spent inside it: its end is its start
plus that time.  Metrics marked computed are derived from operand sizes or
arguments, not timed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# name -> unit; the order here is the order of the printed metrics.
PER_LAYER = {
    "partitions.visited": "count",
    "partitions.enumerate_s": "s",
    "partitions.stats_calls": "count",
    "partitions.stats_s": "s",
    "partitions.count_by_blocks_s": "s",
    "partitions.family_kept_frac": "frac",
    "partitions.is_noncrossing_s": "s",
    "moments.moment_nc_s": "s",
    "moments.moment_blockwise_s": "s",
    "moments.cfree_moments_s": "s",
    "moments.moment_jacobi_s": "s",
    "moments.jacobi_vec_useful_frac": "frac_computed",
    "moments.jacobi_calls": "count",
    "moments.jacobi_kmax_sum": "count",
    "moments.jacobi_s": "s",
    "words.parsed": "count",
    "words.to_partition_s": "s",
    "words.from_partition_s": "s",
    "words.arrangement_s": "s",
    "words.render_s": "s",
    "poly.mul_calls": "count",
    "poly.mul_s": "s",
    "poly.mul_term_pairs": "count_computed",
    "poly.add_calls": "count",
    "poly.add_s": "s",
    "poly.terms_out": "count",
    "poly.max_coeff_bits": "bits",
    "poly.eval_s": "s",
    "poly.specialize_s": "s",
    "fock.vacuum_moment_s": "s",
    "fock.apply_calls": "count",
    "fock.apply_s": "s",
    "fock.entries_scanned": "count_computed",
    "fock.nonzero_frac": "frac_computed",
    "fock.matmul_s": "s",
    "analytic.cauchy_cf_calls": "count",
    "analytic.cauchy_cf_s": "s",
    "analytic.jacobi_floats_s": "s",
    "analytic.continued_fraction_s": "s",
    "analytic.cf_share": "frac",
    "analytic.closed_s": "s",
    "cli.moments_s": "s",
    "cli.sequence_s": "s",
    "cli.partitions_s": "s",
    "cli.words_s": "s",
    "cli.fock_s": "s",
    "cli.cauchy_s": "s",
    "cli.self_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}

COMPUTED = tuple(k for k, unit in PER_LAYER.items() if unit.endswith("_computed"))

# Span names whose total duration is reported as "<name>_s".
_SPAN_TOTALS = {
    "partitions.count_by_blocks": "partitions.count_by_blocks_s",
    "moments.moment_nc": "moments.moment_nc_s",
    "moments.moment_blockwise": "moments.moment_blockwise_s",
    "moments.cfree_moments": "moments.cfree_moments_s",
    "moments.moment_jacobi": "moments.moment_jacobi_s",
    "moments.jacobi": "moments.jacobi_s",
    "fock.vacuum_moment": "fock.vacuum_moment_s",
    "analytic.cauchy_cf": "analytic.cauchy_cf_s",
    "analytic.jacobi_floats": "analytic.jacobi_floats_s",
    "analytic.continued_fraction": "analytic.continued_fraction_s",
    "analytic.closed": "analytic.closed_s",
    "words.to_partition": "words.to_partition_s",
    "words.from_partition": "words.from_partition_s",
    "words.arrangement": "words.arrangement_s",
    "words.render": "words.render_s",
}

_clock = time.perf_counter


def _jacobi_useful(n: int) -> int:
    """Entries of moment_jacobi(n)'s vector updates that can still return to
    the vacuum: after step k only levels <= min(k, n - k) matter."""
    return sum(min(k, n - k) + 1 for k in range(1, n + 1))


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall()
    restores the originals."""

    def __init__(self):
        self.spans = []  # [id, parent id or None, name, start, end]
        self._stack = []
        self.counters = defaultdict(float)
        self._patched = []  # (owner, attribute, original value)

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, name_of=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1][0] if stack else None,
                      name_of(args) if name_of else name, _clock(), None]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = _clock()
                stack.pop()
        return wrapper

    def _counted(self, prefix, fn, after=None):
        c = self.counters

        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            c[prefix + "_s"] += _clock() - t0
            c[prefix + "_calls"] += 1
            if after is not None:
                after(c, args, result)
            return result
        return wrapper

    def _counted_span(self, name, fn, after=None):
        """A span that also feeds '<name>_calls' and an optional counter."""
        inner, c = self._span(name, fn), self.counters

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            c[name + "_calls"] += 1
            if after is not None:
                after(c, args, result)
            return result
        return wrapper

    def _enumerate_nc(self, fn):
        """Time spent inside the generator, and partitions it yields."""
        c = self.counters

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = _clock()
                try:
                    p = next(it)
                except StopIteration:
                    c["partitions.enumerate_s"] += _clock() - t0
                    return
                c["partitions.enumerate_s"] += _clock() - t0
                c["partitions.visited"] += 1
                yield p
        return wrapper

    def _enumerate_family(self, fn):
        """A span of the time spent inside the generator, and the members kept
        against the partitions the enumerator visited for them."""
        spans, stack, c = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            start = c["partitions.visited"]
            it = fn(*args, **kwargs)
            now = _clock()
            record = [len(spans), stack[-1][0] if stack else None,
                      "partitions.enumerate_family", now, now]
            spans.append(record)
            try:
                while True:
                    t0 = _clock()
                    stack.append(record)
                    try:
                        p = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        record[4] += _clock() - t0
                    c["partitions.family_kept"] += 1
                    yield p
            finally:
                c["partitions.family_visited"] += c["partitions.visited"] - start
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced callable wherever the package binds it."""
        from fockpoisson import analytic, cli, fock, moments, partitions, poly, words

        stack = self._stack

        def poly_out(c, args, result):
            if result is NotImplemented:
                return
            if stack and stack[-1][2] == "moments.moment_jacobi":
                c["moments.jacobi_loop_ops"] += 1  # made in its loop, not in jacobi()
            if result._terms:
                c["poly.terms_out"] += len(result._terms)
                bits = max(map(abs, result._terms.values())).bit_length()
                if bits > c["poly.max_coeff_bits"]:
                    c["poly.max_coeff_bits"] = bits

        def mul_out(c, args, result):
            if result is NotImplemented:
                return
            other = args[1]
            width = len(other._terms) if isinstance(other, poly.MultiPoly) else 1
            c["poly.mul_term_pairs"] += len(args[0]._terms) * width
            poly_out(c, args, result)

        def apply_out(c, args, result):
            m = args[0]
            c["fock.entries_scanned"] += m.dim * m.dim
            c["fock.nonzero_entries"] += sum(1 for row in m.entries for x in row if x)

        def jacobi_count(c, args, result):
            c["moments.jacobi_kmax_sum"] += args[0]

        def moment_jacobi_count(c, args, result):
            c["moments.jacobi_vec_useful"] += _jacobi_useful(args[0])

        functions = [
            (partitions.stats, self._counted("partitions.stats", partitions.stats)),
            (partitions.is_noncrossing,
             self._counted("partitions.is_noncrossing", partitions.is_noncrossing)),
            (partitions.enumerate_nc, self._enumerate_nc(partitions.enumerate_nc)),
            (partitions.enumerate_family, self._enumerate_family(partitions.enumerate_family)),
            (partitions.count_by_blocks,
             self._span("partitions.count_by_blocks", partitions.count_by_blocks)),
            (moments.moment_nc, self._span("moments.moment_nc", moments.moment_nc)),
            (moments.moment_blockwise,
             self._span("moments.moment_blockwise", moments.moment_blockwise)),
            (moments.cfree_moments, self._span("moments.cfree_moments", moments.cfree_moments)),
            (moments.moment_jacobi, self._counted_span(
                "moments.moment_jacobi", moments.moment_jacobi, moment_jacobi_count)),
            (moments.jacobi, self._counted_span("moments.jacobi", moments.jacobi, jacobi_count)),
            (moments.weight, self._span("moments.weight", moments.weight)),
            (fock.vacuum_moment, self._span("fock.vacuum_moment", fock.vacuum_moment)),
            (fock.check_relations, self._span("fock.check_relations", fock.check_relations)),
            (words.arrangement, self._span("words.arrangement", words.arrangement)),
            (words.render_ascii, self._span("words.render", words.render_ascii)),
            (analytic.cauchy_cf, self._counted_span("analytic.cauchy_cf", analytic.cauchy_cf)),
            (analytic.jacobi_floats, self._span("analytic.jacobi_floats", analytic.jacobi_floats)),
            (analytic.continued_fraction,
             self._span("analytic.continued_fraction", analytic.continued_fraction)),
            (analytic.cauchy_cfree_closed,
             self._span("analytic.closed", analytic.cauchy_cfree_closed)),
            (cli.main, self._span("cli", cli.main, name_of=lambda a: f"cli.{a[0][0]}")),
        ]
        for original, wrapper in functions:
            self._rebind(original, wrapper)

        methods = [
            (poly.MultiPoly, "__mul__", self._counted("poly.mul", poly.MultiPoly.__mul__, mul_out)),
            (poly.MultiPoly, "__add__", self._counted("poly.add", poly.MultiPoly.__add__, poly_out)),
            (poly.MultiPoly, "eval", self._counted("poly.eval", poly.MultiPoly.eval)),
            (poly.MultiPoly, "specialize_zero",
             self._counted("poly.specialize", poly.MultiPoly.specialize_zero)),
            (poly.MultiPoly, "specialize_one",
             self._counted("poly.specialize", poly.MultiPoly.specialize_one)),
            (fock.FockMatrix, "apply", self._counted("fock.apply", fock.FockMatrix.apply, apply_out)),
            (fock.FockMatrix, "__matmul__",
             self._counted("fock.matmul", fock.FockMatrix.__matmul__)),
            (words.OperatorWord, "to_partition",
             self._span("words.to_partition", words.OperatorWord.to_partition)),
            (partitions.NCPartition, "stats",
             self._span("partitions.NCPartition.stats", partitions.NCPartition.stats)),
        ]
        for cls, name, wrapper in methods:
            original = cls.__dict__[name]
            for attr, value in list(cls.__dict__.items()):
                if value is original:  # aliases such as __rmul__ = __mul__
                    self._set(cls, attr, wrapper)

        for name, prefix in (("parse", "words.parse"), ("from_partition", "words.from_partition")):
            original = words.OperatorWord.__dict__[name]
            self._set(words.OperatorWord, name,
                      classmethod(self._counted_span(prefix, original.__func__)))

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fockpoisson" or mod_name.startswith("fockpoisson."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- metrics ------------------------------------------------------------

    def self_times(self):
        """Per span name: total of each span's duration minus its children's."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def metrics(self):
        """Per-layer metrics of everything traced since the last reset()."""
        c = self.counters
        out = {name: 0.0 for name in PER_LAYER if not name.startswith("bench.")}
        for name in out:
            if name in c:
                out[name] = c[name]
        for _, _, name, start, end in self.spans:
            if name in _SPAN_TOTALS:
                out[_SPAN_TOTALS[name]] += end - start
            elif name.startswith("cli."):
                key = f"{name}_s"
                if key in out:
                    out[key] += end - start
        out["words.parsed"] = c["words.parse_calls"]
        out["cli.self_s"] = sum(v for k, v in self.self_times().items() if k.startswith("cli."))
        out["partitions.family_kept_frac"] = _ratio(
            c["partitions.family_kept"], c["partitions.family_visited"])
        out["moments.jacobi_vec_useful_frac"] = _ratio(
            c["moments.jacobi_vec_useful"], c["moments.jacobi_loop_ops"])
        out["fock.nonzero_frac"] = _ratio(c["fock.nonzero_entries"], c["fock.entries_scanned"])
        out["analytic.cf_share"] = _ratio(
            out["analytic.continued_fraction_s"], out["analytic.cauchy_cf_s"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0
