"""Timing wrappers installed on strongmeans from outside, and the spans they record.

Nothing under `src/` knows about this module.  `install` replaces every
module attribute (and class attribute) that binds one of the TARGETS with
a wrapper that records a span: name, start, end, the index of the
enclosing span, and a few facts read from the call's arguments or result.
Spans stay in memory; the launcher writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# span name -> (defining module, attribute path)
TARGETS = {
    "cli.main": ("strongmeans.cli", "main"),
    "cli.execute": ("strongmeans.cli", "execute"),
    "cli.write_csv": ("strongmeans.cli", "write_csv"),
    "corpus.build": ("strongmeans.cli", "build_functions"),
    "czd.decompose": ("strongmeans.czd", "decompose"),
    "dyadic.dilate": ("strongmeans.dyadic", "dilate"),
    "covering.family_gen_1d": ("strongmeans.covering", "random_nonadjacent_family"),
    "covering.family_gen_2d": ("strongmeans.covering",
                               "random_nonadjacent_cube_family"),
    "covering.verify_1d": ("strongmeans.covering", "verify_covering"),
    "covering.verify_2d": ("strongmeans.covering", "verify_covering_cubes"),
    "covering.chain_scan": ("strongmeans.covering", "exhaustive_chain_scan"),
    "suites.czd_invariants": ("strongmeans.suites", "czd_invariants"),
    "spectral.forward": ("strongmeans.spectral", "forward"),
    "spectral.valle_poussin": ("strongmeans.spectral", "valle_poussin"),
    "spectral.convolve": ("strongmeans.spectral", "convolve"),
    "spectral.saturated_sum": ("strongmeans.spectral", "saturated_sum"),
    "spectral.plancherel_average": ("strongmeans.spectral", "plancherel_average"),
    "spectral.plancherel_average_rect": ("strongmeans.spectral",
                                         "plancherel_average_rect"),
    "estimates.averaged_moment": ("strongmeans.estimates", "averaged_moment"),
    "estimates.averaged_moment_rect": ("strongmeans.estimates",
                                       "averaged_moment_rect"),
    "estimates.strong_means_measure": ("strongmeans.estimates",
                                       "strong_means_measure"),
    "estimates.build_exceptional_set": ("strongmeans.estimates",
                                        "build_exceptional_set"),
    "estimates.complement_weights": ("strongmeans.estimates",
                                     "ExceptionalSet.complement_weights"),
    "estimates.verify_first_reduction": ("strongmeans.estimates",
                                         "verify_first_reduction"),
    "estimates.verify_second_reduction": ("strongmeans.estimates",
                                          "verify_second_reduction"),
    "estimates.decay_slope": ("strongmeans.estimates", "decay_slope"),
    "estimates.density_subsequence": ("strongmeans.estimates",
                                      "density_subsequence"),
}

# A span per sub-microsecond call would distort the trace: count these only.
COUNT_ONLY = {"dyadic.dilate"}


def _sweep_facts(refine_default, sweeps):
    """Facts of one sweep call: the function swept and N_max * M samples."""

    def facts(sig, args, kwargs, _out):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        n_max = a["N_max"] if "N_max" in a else max(a["schedule"])
        m = 1 << (a["f"].J + a.get("refine", refine_default))
        return {"fn": a.get("fn_id", ""), "samples": sweeps * n_max * m}

    return facts


# span name -> facts(signature, args, kwargs, result) -> dict
FACTS = {
    "corpus.build": lambda sig, a, k, out: {"n": len(out)},
    "cli.write_csv": lambda sig, a, k, out: {
        "rows": len(sig.bind(*a, **k).arguments["rows"])},
    "czd.decompose": lambda sig, a, k, out: {"exact": bool(out.exact),
                                             "bad": len(out.bad)},
    "estimates.averaged_moment": _sweep_facts(2, 1),
    # the separable fast path sweeps both 1-d factors
    "estimates.averaged_moment_rect": _sweep_facts(1, 2),
    "estimates.strong_means_measure": _sweep_facts(2, 1),
}


class Recorder:
    """In-memory span and count record of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, facts]
        self.stack = []  # indices of the open spans, shared by every wrapper
        self.counts = {}
        self.absent = {}  # span name -> reason
        self.overhead_s = 0.0  # bookkeeping time spent inside the wrappers

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        facts = FACTS.get(name)
        sig = inspect.signature(fn) if facts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            t1 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                rec[1], rec[2] = t1, t2
            if facts:
                rec[4] = facts(sig, args, kwargs, out)
            self.overhead_s += (t1 - t0) + (perf_counter() - t2)
            return out

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, targets=TARGETS):
        """Wrap every target wherever strongmeans binds it.

        A target that no longer exists is recorded in `absent` instead of
        failing, so a program that merged or renamed it still runs.
        """
        t0 = perf_counter()
        found = {}
        for name, (modname, path) in targets.items():
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                found[name] = (owner, attr, getattr(owner, attr))
            except (ImportError, AttributeError):
                self.absent[name] = f"{modname}.{path} no longer exists"
        modules = [m for n, m in list(sys.modules.items())
                   if n == "strongmeans" or n.startswith("strongmeans.")]
        for name, (owner, attr, orig) in found.items():
            wrap = (self._count_wrapper if name in COUNT_ONLY
                    else self._span_wrapper)
            wrapped = wrap(name, orig)
            setattr(owner, attr, wrapped)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        self.overhead_s += perf_counter() - t0

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "absent": self.absent, "overhead_s": self.overhead_s}
