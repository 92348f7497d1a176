"""Checks every op's exit code and stdout without using the package.

``check_ops`` returns one entry per op: None when the output is valid, else
the reason it is not.  The checks hold for any seed:

* hierarchies are strictly increasing with r <= d_r <= n - k + r, and d_k is
  the ideal closure of the code's support;
* ``chain``, ``flag`` and ``hierarchy`` agree on the same code, and
  ``unique`` holds exactly when ``flag_count`` is 1;
* every flag is nested, ends at the code, and each D_r has ideal-closure
  weight d_r;
* ``bound`` uses a minimum chain partition and equals the q-binomial sum
  computed by recurrence;
* census totals are Gaussian binomials and ``census_ge_bound`` holds.
"""

from __future__ import annotations

import json

from algebra import (
    Field,
    GaussianBinomials,
    ideal_size,
    in_row_space,
    is_chain,
    is_rref,
    rref,
    support_mask,
    width,
)


class Invalid(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Invalid(msg)


def parse(out, keys, exit_ok=(0,)):
    require(out["exit"] in exit_ok, f"exit {out['exit']!r}: {out['stderr'][-300:]}")
    try:
        report = json.loads(out["stdout"])
    except json.JSONDecodeError as exc:
        raise Invalid(f"stdout is not JSON: {exc}") from None
    require(isinstance(report, dict) and set(report) == set(keys), f"report keys {sorted(report)}")
    return report


class Checker:
    def __init__(self):
        self.binomials = {}

    def gauss(self, q, m):
        if q not in self.binomials:
            self.binomials[q] = GaussianBinomials(q)
        return self.binomials[q].row(m)

    # -- codes ----------------------------------------------------------------

    def hierarchy_ok(self, inst, hier):
        n, k = len(inst["down"]), len(inst["gens"])
        require(isinstance(hier, list) and len(hier) == k, f"hierarchy {hier} has wrong length")
        require(all(isinstance(d, int) for d in hier), f"hierarchy {hier} is not integral")
        require(all(a < b for a, b in zip(hier, hier[1:])), f"hierarchy {hier} not increasing")
        require(all(r <= d <= n - k + r for r, d in enumerate(hier, 1)), f"hierarchy {hier} breaks r <= d_r <= n-k+r")
        require(hier[-1] == ideal_size(inst["down"], support_mask(inst["gens"])), f"d_k {hier[-1]} is not the code's weight")

    def flag_ok(self, inst, flag, hier):
        q, down, gens = inst["q"], inst["down"], inst["gens"]
        n, k = len(down), len(gens)
        field = Field(q)
        require(isinstance(flag, list) and len(flag) == k, "flag has wrong length")
        for r, d in enumerate(flag, 1):
            require(isinstance(d, list) and len(d) == r, f"D_{r} has {len(d)} rows")
            require(all(isinstance(row, list) and len(row) == n for row in d), f"D_{r} rows have wrong length")
            require(is_rref(d, q), f"D_{r} is not a reduced echelon basis")
            require(ideal_size(down, support_mask(d)) == hier[r - 1], f"D_{r} weight is not d_{r}={hier[r - 1]}")
        for r in range(1, k):
            require(all(in_row_space(field, flag[r], row) for row in flag[r - 1]), f"D_{r} not inside D_{r + 1}")
        code = rref(field, gens)
        require(all(in_row_space(field, code, row) for row in flag[-1]), "D_k is not the code")

    def hierarchy(self, inst, out):
        rep = parse(out, ("q", "n", "k", "hierarchy", "support", "support_totally_ordered"))
        down, gens = inst["down"], inst["gens"]
        require((rep["q"], rep["n"], rep["k"]) == (inst["q"], len(down), len(gens)), "q, n or k differs")
        self.hierarchy_ok(inst, rep["hierarchy"])
        mask = support_mask(gens)
        supp = [j for j in range(len(down)) if (mask >> j) & 1]
        require(rep["support"] == [j + 1 for j in supp], "support differs")
        require(rep["support_totally_ordered"] is is_chain(down, supp), "support_totally_ordered differs")
        return rep

    def chain(self, inst, out):
        rep = parse(out, ("hierarchy", "chain_condition", "flag", "unique"), (0, 1))
        self.hierarchy_ok(inst, rep["hierarchy"])
        holds = rep["chain_condition"]
        require(isinstance(holds, bool) and out["exit"] == (0 if holds else 1), "exit code disagrees with chain_condition")
        if holds:
            self.flag_ok(inst, rep["flag"], rep["hierarchy"])
            require(isinstance(rep["unique"], bool), "unique is not a boolean")
        else:
            require(rep["flag"] is None and rep["unique"] is False, "flag or unique set without a flag")
        return rep

    def flag(self, inst, out):
        rep = parse(out, ("flag", "weights", "flag_count"), (0, 1))
        count = rep["flag_count"]
        require(isinstance(count, int) and count >= 0, "flag_count is not a count")
        require(out["exit"] == (0 if count else 1), "exit code disagrees with flag_count")
        if count:
            self.hierarchy_ok(inst, rep["weights"])
            self.flag_ok(inst, rep["flag"], rep["weights"])
        else:
            require(rep["flag"] is None and rep["weights"] is None, "flag printed with flag_count 0")
        return rep

    @staticmethod
    def agree(reps):
        """Cross-checks between the hierarchy, chain and flag reports of one code."""
        h, c, f = reps.get("hierarchy"), reps.get("chain"), reps.get("flag")
        if h and c:
            require(c["hierarchy"] == h["hierarchy"], "chain and hierarchy disagree on the hierarchy")
        if c and f:
            require(c["chain_condition"] == (f["flag_count"] > 0), "chain_condition disagrees with flag_count")
            require(c["unique"] == (f["flag_count"] == 1), "unique disagrees with flag_count")
            require(c["flag"] == f["flag"], "chain and flag print different flags")
        if h and f and f["flag_count"]:
            require(f["weights"] == h["hierarchy"], "flag weights differ from the hierarchy")

    # -- counting -------------------------------------------------------------

    def bound(self, inst, out):
        rep = parse(out, ("q", "chains", "nu", "bound", "addends"))
        q, down = inst["q"], inst["down"]
        n = len(down)
        require(rep["q"] == q, "q differs")
        chains = rep["chains"]
        flat = [e for c in chains for e in c]
        require(sorted(flat) == list(range(1, n + 1)), "chains do not partition the ground set")
        require(all(is_chain(down, [e - 1 for e in c]) for c in chains), "a part is not a chain")
        require(len(chains) == width(down), "partition is not minimum")
        nu = [len(c) for c in chains]
        require(rep["nu"] == nu, "nu differs from the chain sizes")
        addends = [self.gauss(q, s)[1:] for s in nu]
        require(rep["addends"] == [[str(x) for x in row] for row in addends], "addends differ from q-binomials")
        require(rep["bound"] == str(sum(map(sum, addends))), "bound differs from the q-binomial sum")
        return rep

    def census(self, inst, out):
        rep = parse(out, ("q", "n", "max_dim", "per_dim", "chain_condition_total", "bound", "census_ge_bound", "tight"))
        q, down = inst["q"], inst["down"]
        n = len(down)
        require((rep["q"], rep["n"], rep["max_dim"]) == (q, n, n), "q, n or max_dim differs")
        row = self.gauss(q, n)
        per = rep["per_dim"]
        require([p["dim"] for p in per] == list(range(1, n + 1)), "per_dim dimensions differ")
        require([p["codes"] for p in per] == [str(row[r]) for r in range(1, n + 1)], "codes differ from q-binomials")
        good = [int(p["chain_condition"]) for p in per]
        require(all(0 < g <= row[r] for r, g in enumerate(good, 1)), "chain-condition counts out of range")
        require(good[0] == row[1] and good[-1] == 1, "every 1-dim code and the full space satisfy the condition")
        total = sum(good)
        require(rep["chain_condition_total"] == str(total), "total differs from the per-dimension sum")
        sums = {sum(sum(self.gauss(q, len(c))[1:]) for c in part) for part in min_chain_partitions(down)}
        bound = int(rep["bound"])
        require(bound in sums, "bound is not the sum over any minimum chain partition")
        require(rep["census_ge_bound"] is True and total >= bound, "census below the bound")
        require(rep["tight"] is (total == bound), "tight differs")
        return rep

    def verify(self, inst, out):
        rep = parse(out, ("mode", "seed", "batch", "ok", "checks"))
        require((rep["mode"], rep["seed"], rep["batch"]) == ("batch", inst["seed"], inst["batch"]), "echo differs")
        names = [c["name"] for c in rep["checks"]]
        require(rep["ok"] is True and all(c["ok"] is True for c in rep["checks"]), "a property check failed")
        require(names == ["randomized_code_invariants", "totally_ordered_support_properties", "rt_weight_equivalence"], f"checks {names}")
        return rep


def min_chain_partitions(down):
    """Every partition of a small poset into width-many chains."""
    n, w = len(down), width(down)
    out = []

    def place(e, parts):
        if e == n:
            if len(parts) == w:
                out.append([list(p) for p in parts])
            return
        for p in parts:
            if is_chain(down, p + [e]):
                p.append(e)
                place(e + 1, parts)
                p.pop()
        if len(parts) < w:
            parts.append([e])
            place(e + 1, parts)
            parts.pop()

    place(0, [])
    return out


def check_ops(instances, ops, outputs):
    """One entry per op: None if valid, "known: <cause>" for a listed known
    failure, else the reason the output is invalid."""
    checker = Checker()
    status, reports = [], {}
    for op, out in zip(ops, outputs):
        known = op.get("known_failure")
        if known and not out["stdout"] and isinstance(out["exit"], str) and out["exit"].startswith("ValueError"):
            status.append(f"known: {known}")
            continue
        try:
            rep = getattr(checker, op["cmd"])(instances[op["inst"]], out)
            reports.setdefault(op["inst"], {})[op["cmd"]] = rep
            status.append(None)
        except Invalid as exc:
            status.append(f"{op['cmd']} {op['inst']}: {exc}")
        except (KeyError, TypeError, ValueError) as exc:
            status.append(f"{op['cmd']} {op['inst']}: malformed report ({type(exc).__name__}: {exc})")
    for i, op in enumerate(ops):
        if status[i] is None and op["cmd"] in ("chain", "flag"):
            try:
                Checker.agree(reports.get(op["inst"], {}))
            except Invalid as exc:
                status[i] = f"{op['cmd']} {op['inst']}: {exc}"
    return status

