"""Span tracing of the pentangle layers, installed from outside the package.

`install` wraps every public module-level function of every loaded
`pentangle.*` module, plus the scalar and polynomial kernels listed in
METHODS, and the suite runners of `report`.  A function is replaced at
every name a caller resolves it by: the module that defines it and every
module that imported it by name (moore's `det_bareiss`, the package's
re-exports).  Methods are replaced on their class; no class object is
ever replaced, so `isinstance` checks inside the program still see the
real classes.

Each call opens a span (name, start, parent = the innermost open span).
When the span closes it is folded into per-name totals: calls, total
time (outermost calls only, so recursion is not counted twice) and self
time (duration minus the time covered by child spans).  Folding as spans
close, instead of keeping them, matters here: the identities workload
opens about half a million spans, and keeping them would add hundreds of
megabytes to the traced process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: kernels traced on their class: (module, class, methods).  Aliases in
#: the class body (`__rmul__ = __mul__`) are the same function object
#: and are traced under the same name.
METHODS = (
    ("scalars", "Cyclo", ("__mul__",)),
    ("scalars", "RatFunc", ("__mul__", "__add__", "__truediv__")),
    ("scalars", "Fp", ("__mul__",)),
    ("multipoly", "MultiPoly", ("__mul__", "exact_div")),
)

def _field_tag(value) -> str:
    """ratfunc, cyclo or fp: the coefficient field of a scalar."""
    return type(value).__name__.lower()


def _modulus_kind(value) -> str:
    """symbolic for the transcendental modulus (None or a RatFunc), fp
    for a prime-field one."""
    return "symbolic" if value is None or _field_tag(value) == "ratfunc" else "fp"


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


#: extra span names for calls that differ by argument: maps a traced name
#: to a function of (args, kwargs) giving the suffix of a second name the
#: same span is also counted under
VARIANTS = {
    "multipoly.det_bareiss":
        lambda args, kw: _field_tag(_first_arg(args, kw, "m").one),
    "multipoly.det_cofactor":
        lambda args, kw: _field_tag(_first_arg(args, kw, "m").one),
    "moore.verify_matrix_identities":
        lambda args, kw: _modulus_kind(args[0] if args else kw.get("a")),
    "moore.verify_span_claims":
        lambda args, kw: _modulus_kind(_first_arg(args, kw, "mm").one),
    "probe.scan_curve": lambda args, kw: "p%d" % _first_arg(args, kw, "p"),
    "probe.certify_secant_variety":
        lambda args, kw: "p%d" % _first_arg(args, kw, "scan").p,
    "probe.certify_incidence":
        lambda args, kw: "p%d" % _first_arg(args, kw, "scan").p,
    "probe.interpolate_cremona_inverse":
        lambda args, kw: "p%d" % _first_arg(args, kw, "scan").p,
}


class Tracer:
    """Per-name span totals plus the counters read from returned values."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []       # open spans: [child_time]
        self._depth: dict[str, int] = {}

    def _slot(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn, variant=None, on_result=None):
        """Return fn traced under name (and name.<variant(args)>)."""
        stack = self._stack
        depth = self._depth
        slot = self._slot(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [0.0]
            outer = depth.get(name, 0) == 0
            depth[name] = depth.get(name, 0) + 1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                slot[0] += 1
                slot[2] += elapsed - span[0]
                if outer:
                    slot[1] += elapsed
                    if variant is not None:
                        extra = self._slot("%s.%s" % (name, variant(args, kwargs)))
                        extra[0] += 1
                        extra[1] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _on_scan(tracer: Tracer, scan) -> None:
    tracer.count("probe.scan_curve.points", len(scan.points))
    tracer.count("probe.scan_curve.cache_hits", int(bool(scan.from_cache)))


def _on_witness(tracer: Tracer, result) -> None:
    tried = sum(len(entry.get("candidates", ())) for entry in result["trace"])
    tracer.count("hessepencil.find_torsion_witness.candidates", tried)


ON_RESULT = {
    "probe.scan_curve": _on_scan,
    "hessepencil.find_torsion_witness": _on_witness,
}


def _package_modules(package: str) -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == package or name.startswith(package + "."))}


def install(tracer: Tracer, package: str = "pentangle") -> None:
    """Wrap the package's public functions, kernels and suite runners.

    The package must already be imported; the wrapping lasts for the life
    of the process.
    """
    modules = _package_modules(package)
    wrappers = {}
    for modname, mod in modules.items():
        short = modname.rpartition(".")[2]
        for attr, value in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != modname):
                continue
            label = "%s.%s" % (short, attr)
            wrappers[value] = tracer.wrap(label, value, VARIANTS.get(label),
                                          ON_RESULT.get(label))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])

    for modname, clsname, methods in METHODS:
        cls = getattr(modules["%s.%s" % (package, modname)], clsname)
        for method in methods:
            original = vars(cls)[method]
            wrapped = tracer.wrap("%s.%s.%s" % (modname, clsname,
                                                method.strip("_")), original)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, attr, wrapped)

    runners = modules["%s.report" % package]._RUNNERS
    for suite, runner in list(runners.items()):
        runners[suite] = tracer.wrap("suite.%s" % suite, runner)
