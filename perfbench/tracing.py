"""Span tracing around the public functions of each dendralg module.

Run as a program, this is the traced stand-in for `python -m dendralg`:

    python3 perfbench/tracing.py SPANS.json REQUEST_ID verify --suite ...

It imports the package, wraps the functions listed in LAYERS (every module
binding of each, so names imported into other modules are traced too), runs
`dendralg.cli.main(argv)` inside a root span, writes the spans to SPANS.json
and exits with main's exit code.  Spans are kept in memory while the request
runs.  The benchmark reads the files back with `summarize`.

A span is (group, start, end, parent, count).  Its self time is its duration
minus the durations of its direct children; `count` is the work measure of
the group (terms, pairs, triples), defined by the counters below.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Recorder:
    def __init__(self):
        self.groups: list = []
        self.group_id: dict = {}
        self.group = []
        self.parent = []
        self.start = []
        self.end = []
        self.count = []
        self.stack = [-1]
        self.max_terms = 0

    def _gid(self, name: str) -> int:
        if name not in self.group_id:
            self.group_id[name] = len(self.groups)
            self.groups.append(name)
        return self.group_id[name]

    def wrap(self, name: str, fn, counter=None):
        gid = self._gid(name)
        group, parent, start, end = self.group, self.parent, self.start, self.end
        count, stack = self.count, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(group)
            group.append(gid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            count.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                count[idx] = counter(self, args, out)
            return out

        return traced

    def record(self, name: str, t0: float, t1: float):
        """A span measured by the caller, outside any wrapped call."""
        self.group.append(self._gid(name))
        self.parent.append(-1)
        self.start.append(t0)
        self.end.append(t1)
        self.count.append(0)

    def to_dict(self, request) -> dict:
        return {"request": request, "groups": self.groups, "group": self.group,
                "parent": self.parent, "start": self.start, "end": self.end,
                "count": self.count, "max_terms": self.max_terms}


# -- counters: the work measure stored with each span ------------------------

def _terms_in_new(rec, args, out):
    rec.max_terms = max(rec.max_terms, len(args[0]))
    terms = args[2] if len(args) > 2 else ()
    return len(terms) if hasattr(terms, "__len__") else 0


def _terms_in_add(rec, args, out):
    return len(args[0]) + len(args[1])


def _terms_out(rec, args, out):
    return len(out)


def _pairs(rec, args, out):
    return len(args[1]) * len(args[2])


def _triples(rec, args, out):
    return out


# module -> span group -> the module's functions traced under that group
LAYERS = {
    "ncalg": {"ncalg.series_mul": ("series_mul",)},
    "dendriform": {
        "dendriform.prelie": ("prelie_left", "prelie_right", "ell", "r",
                              "w_left", "w_right", "lie_bracket"),
    },
    "structures": {"structures.build": ("from_selector",)},
    "hopf": {
        "hopf.comp": ("w_right_from_compositions", "w_left_from_compositions",
                      "eval_comp", "dynkin_w", "w_antipode", "gamma",
                      "gamma_coeffs", "comp_mul", "comp_coproduct",
                      "comp_antipode", "comp_dynkin", "comp_dynkin_apply"),
        "hopf.words": ("concat_mul", "dynkin_word", "convolution_expansion",
                       "ordered_partition_expansion"),
    },
    "lyndon": {
        "lyndon.spitzer": ("spitzer_sums", "t_sigma", "u_sigma"),
        "lyndon.perm_sweep": ("pbw_expansion", "lyn_set", "lyndon_census",
                              "cfl_factorize", "profile"),
    },
    "magnus": {
        "magnus.omega": ("magnus_omega",),
        "magnus.explog": ("star_exp", "star_log"),
        "magnus.ode": ("dynkin_ode_check",),
    },
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def install(rec: Recorder):
    """Wrap every traced function and method of the loaded package."""
    from dendralg import dendriform, ncalg, suites

    modules = [m for name, m in list(sys.modules.items())
               if name == "dendralg" or name.startswith("dendralg.")]

    def rebind(old, new):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    for modname, groups in LAYERS.items():
        module = sys.modules[f"dendralg.{modname}"]
        for group, names in groups.items():
            for name in names:
                fn = getattr(module, name)
                rebind(fn, rec.wrap(group, fn))

    def method(cls, attr, group, counter=None):
        setattr(cls, attr, rec.wrap(group, cls.__dict__[attr], counter))

    method(ncalg.Elem, "__init__", "ncalg.elem_new", _terms_in_new)
    method(ncalg.Elem, "__add__", "ncalg.elem_add", _terms_in_add)
    method(ncalg.Elem, "__eq__", "ncalg.elem_eq")
    method(ncalg.Word, "__init__", "ncalg.key_new")
    method(ncalg.Perm, "__init__", "ncalg.key_new")
    base = dendriform.DendriformStructure
    for attr in ("left", "right", "star"):
        method(base, attr, "dendriform.half", _pairs)
    method(base, "self_test", "dendriform.self_test", _triples)
    for cls in _all_subclasses(base):
        for attr in ("basis_left", "basis_right"):
            if attr in cls.__dict__:
                method(cls, attr, "structures.basis", _terms_out)

    def traced_suite(gen_fn):
        @functools.wraps(gen_fn)
        def gen(options):
            for thunk in gen_fn(options):
                yield rec.wrap("suites.report", thunk)
        return gen

    for name, (gen_fn, description) in list(suites.SUITES.items()):
        suites.SUITES[name] = (traced_suite(gen_fn), description)


# -- reading spans back ------------------------------------------------------

def self_times(parent, start, end) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def summarize(spans: dict) -> dict:
    """Per group: calls, self time, total time and summed count."""
    own = self_times(spans["parent"], spans["start"], spans["end"])
    out = {name: {"calls": 0, "self_s": 0.0, "s": 0.0, "count": 0}
           for name in spans["groups"]}
    for gid, s, e, o, c in zip(spans["group"], spans["start"], spans["end"],
                               own, spans["count"]):
        g = out[spans["groups"][gid]]
        g["calls"] += 1
        g["self_s"] += o
        g["s"] += e - s
        g["count"] += c
    return out


def main(argv) -> int:
    out_path, request, cli_argv = argv[0], int(argv[1]), argv[2:]
    rec = Recorder()
    t0 = perf_counter()
    from dendralg import cli
    rec.record("cli.import", t0, perf_counter())
    install(rec)
    try:
        code = rec.wrap("cli.main", cli.main)(cli_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(rec.to_dict(request), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
