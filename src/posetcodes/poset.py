"""Finite partial orders on {1, .., n}: ideals, chains, width, file format.

Elements are 1-based everywhere in the public API, matching the usual
ground-set convention {1, 2, .., n}.  Internally the order relation is a
tuple of down-set bitmasks: bit ``e - 1`` of ``_down[i - 1]`` is set iff
``e <= i`` in the order.  ``_up`` holds the transposed masks, the up-sets.
Posets are immutable and safe to share.
"""

from __future__ import annotations

import json
from collections import namedtuple
from heapq import nsmallest
from functools import partial
from itertools import count

from .errors import CycleError, EmptyInputError, InputError, RangeError, read_utf8


def _is_int(x) -> bool:
    """True for integers; false for booleans, which Python counts as integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _bits(mask: int):
    """Yield 0-based positions of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ChainPartition(namedtuple("ChainPartition", "chains")):
    """Disjoint chains, a tuple of tuples of elements, whose union is the
    ground set {1, .., n}."""

    __slots__ = ()

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)


class Poset:
    """Immutable partial order on {1, .., n}.

    Constructing one validates the down-sets and derives the up-sets;
    ``_trusted`` skips that for masks the package itself built as a partial
    order, together with their up-sets.
    """

    __slots__ = ("n", "_down", "_up")

    @classmethod
    def _trusted(cls, n: int, down_masks, up_masks) -> Poset:
        p = object.__new__(cls)
        p.n = n
        p._down = tuple(down_masks)
        p._up = tuple(up_masks)
        return p

    def __init__(self, n: int, down_masks):
        _check_size(n)
        masks = tuple(int(m) for m in down_masks)
        if len(masks) != n:
            raise InputError(f"expected {n} down-sets, got {len(masks)}")
        universe = (1 << n) - 1
        for i, m in enumerate(masks):
            if m & ~universe:
                raise RangeError(f"down-set of {i + 1} mentions elements outside 1..{n}")
            if not (m >> i) & 1:
                raise InputError(f"relation is not reflexive at {i + 1}")
        up = [0] * n
        for i, m in enumerate(masks):
            for j in _bits(m):
                if j != i and (masks[j] >> i) & 1:
                    raise CycleError(f"elements {j + 1} and {i + 1} are mutually comparable")
                if masks[j] & ~m:
                    raise InputError(f"relation is not transitive below {i + 1}")
                up[j] |= 1 << i
        self.n = n
        self._down = masks
        self._up = tuple(up)

    # -- queries ---------------------------------------------------------

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)

    def _check_element(self, e: int) -> int:
        if not isinstance(e, int) or not 1 <= e <= self.n:
            raise RangeError(f"element {e!r} outside 1..{self.n}")
        return e

    def leq(self, a: int, b: int) -> bool:
        """True iff a <= b in the order."""
        self._check_element(a)
        self._check_element(b)
        return bool((self._down[b - 1] >> (a - 1)) & 1)

    def comparable(self, a: int, b: int) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def ideal_mask(self, mask: int) -> int:
        """Down-closure of a 0-based bitmask of elements, as a bitmask."""
        out = 0
        for i in _bits(mask):
            out |= self._down[i]
        return out

    def ideal(self, generators) -> frozenset[int]:
        """Smallest ideal (down-set) containing the generators; empty for none."""
        mask = 0
        for e in generators:
            self._check_element(e)
            mask |= 1 << (e - 1)
        return frozenset(i + 1 for i in _bits(self.ideal_mask(mask)))

    def is_total_on(self, subset) -> bool:
        """True iff every pair of elements of the subset is comparable: the
        subset lies inside the down-set or the up-set of each member."""
        mask = 0
        for e in subset:
            mask |= 1 << (self._check_element(e) - 1)
        down, up = self._down, self._up
        return all(not mask & ~(down[i] | up[i]) for i in _bits(mask))

    def is_antichain(self) -> bool:
        return all(m == 1 << i for i, m in enumerate(self._down))

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (a, b): a < b with nothing strictly between, that is,
        a is the only element of b's strict down-set above or equal to a."""
        up = self._up
        out = []
        for b, down in enumerate(self._down):
            below = down ^ (1 << b)
            for a in _bits(below):
                if below & up[a] == 1 << a:
                    out.append((a + 1, b + 1))
        return out

    def width_and_min_chain_partition(self) -> tuple[int, ChainPartition]:
        """Largest-antichain size and a partition into that many chains.

        Uses the classic reduction of minimum chain cover to maximum
        bipartite matching.  Deterministic: left vertices are processed in
        ascending label order and augmenting paths prefer the
        smallest-labeled available successor, so the partition is stable
        for a fixed input.
        """
        n = self.n
        succ = [u ^ (1 << i) for i, u in enumerate(self._up)]
        match_l = [-1] * n
        match_r = [-1] * n
        matched = 0
        for root in range(n):
            # Depth-first search for an augmenting path from root, without
            # recursion: frames are left vertices, path[d] is the successor
            # frame d is trying.  A frame's next successor is the lowest one
            # not yet visited; the ones below it were visited already.
            unseen = (1 << n) - 1
            frames = [root]
            path = []
            while frames:
                avail = succ[frames[-1]] & unseen
                if not avail:
                    frames.pop()
                    if path:
                        path.pop()
                    continue
                low = avail & -avail
                unseen ^= low
                j = low.bit_length() - 1
                path.append(j)
                if match_r[j] == -1:
                    for i, j in zip(frames, path):
                        match_l[i] = j
                        match_r[j] = i
                    matched += 1
                    break
                frames.append(match_r[j])
        width = n - matched
        chains = []
        for head in range(n):
            if match_r[head] != -1:
                continue
            chain = [head]
            while match_l[chain[-1]] != -1:
                chain.append(match_l[chain[-1]])
            chains.append(tuple(e + 1 for e in chain))
        return width, ChainPartition(tuple(chains))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self._down == other._down

    def __hash__(self):
        return hash((self.n, self._down))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.covers()})"


# -- constructors ------------------------------------------------------------
#
# The ``_check_*`` helpers hold each constructor's checks that need no order
# masks, so that ``poset_builder`` can run them before it declares a size.


def _check_size(n: int) -> None:
    if n < 1:
        raise RangeError(f"ground set size must be positive, got {n}")


def _check_covers(n: int, covers) -> None:
    _check_size(n)
    for pair in covers:
        a, b = pair
        if not (_is_int(a) and _is_int(b)):
            raise InputError(f"cover pair {pair!r} is not a pair of integers")
        if not (1 <= a <= n and 1 <= b <= n):
            raise RangeError(f"cover pair {pair!r} outside 1..{n}")
        if a == b:
            raise InputError(f"cover pair {pair!r} relates an element to itself")


def _block_sizes(block_sizes) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in block_sizes)
    if not sizes:
        raise EmptyInputError("weak order needs at least one block")
    if any(s < 1 for s in sizes):
        raise RangeError(f"block sizes must be positive, got {sizes}")
    return sizes


def _check_chains(chain_length: int, num_chains: int) -> None:
    if chain_length < 1 or num_chains < 1:
        raise RangeError(
            f"chain length and count must be positive, got ({chain_length}, {num_chains})"
        )


def from_cover_relations(n: int, covers) -> Poset:
    """Reflexive-transitive closure of the given cover pairs (a, b) = a < b."""
    covers = tuple(covers)
    _check_covers(n, covers)
    return _cover_closure(n, covers)


def _cover_closure(n: int, covers) -> Poset:
    """``from_cover_relations`` of checked cover pairs.

    The closure runs in topological order (Kahn's algorithm): each element's
    finished down-set is ORed into its upper covers, and the up-sets are
    built in the reverse order.
    """
    down = [1 << i for i in range(n)]
    upper = [[] for _ in range(n)]
    lower_count = [0] * n
    for a, b in covers:
        if not (down[b - 1] >> (a - 1)) & 1:
            down[b - 1] |= 1 << (a - 1)
            upper[a - 1].append(b - 1)
            lower_count[b - 1] += 1
    order = [i for i in range(n) if not lower_count[i]]
    for i in order:  # grows while it is read
        for j in upper[i]:
            down[j] |= down[i]
            lower_count[j] -= 1
            if not lower_count[j]:
                order.append(j)
    if len(order) < n:
        _raise_cycle(upper, [i for i in range(n) if lower_count[i]])
    up = [0] * n
    for i in reversed(order):
        mask = 1 << i
        for j in upper[i]:
            mask |= up[j]
        up[i] = mask
    return Poset._trusted(n, down, up)


def _raise_cycle(upper, left) -> None:
    """Name the smallest element on a cycle and the smallest other element
    of its cycle.  ``left`` lists, ascending, the elements that the
    topological closure could not finish: those on or above a cycle.  The
    upper covers of an unfinished element are unfinished too, so the cycles
    are the strongly connected components of two or more elements that
    Tarjan's algorithm, run with an explicit stack, finds from ``left``."""
    n = len(upper)
    index = [-1] * n  # visiting order, -1 before the visit
    low = [0] * n
    on_stack = [False] * n
    visits, stack, frames = count(), [], []
    first = [n, n]  # the two smallest elements of the cycle found so far

    def visit(v):
        index[v] = low[v] = next(visits)
        stack.append(v)
        on_stack[v] = True
        frames.append((v, iter(upper[v])))

    for root in left:
        if index[root] == -1:
            visit(root)
        while frames:
            v, succ = frames[-1]
            for w in succ:
                if index[w] == -1:
                    visit(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:  # v roots a component: pop it
                    component, w = [], None
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                    if len(component) > 1:
                        first = min(first, nsmallest(2, component))
    i, j = first
    raise CycleError(f"covers close into a cycle through {j + 1} and {i + 1}")


def weak_order(block_sizes) -> Poset:
    """Ordinal sum of antichains; x < y iff x's block precedes y's block.

    Blocks are labeled consecutively: the first block gets 1..s1, the
    second s1+1..s1+s2, and so on.
    """
    sizes = _block_sizes(block_sizes)
    n = sum(sizes)
    down, up = [], []
    start = 0
    for s in sizes:
        below = (1 << start) - 1
        above = ((1 << n) - 1) ^ ((1 << (start + s)) - 1)
        for i in range(start, start + s):
            down.append(below | (1 << i))
            up.append(above | (1 << i))
        start += s
    return Poset._trusted(n, down, up)


def disjoint_chains(chain_length: int, num_chains: int) -> Poset:
    """num_chains disjoint chains of chain_length elements, labeled column-major:
    chain j occupies labels (j-1)*chain_length + 1 .. j*chain_length, ascending."""
    _check_chains(chain_length, num_chains)
    down, up = [], []
    for j in range(num_chains):
        # chain j is the bits lo .. hi - 1
        lo, hi = j * chain_length, (j + 1) * chain_length
        for i in range(lo, hi):
            down.append((1 << (i + 1)) - (1 << lo))
            up.append((1 << hi) - (1 << i))
    return Poset._trusted(chain_length * num_chains, down, up)


def chain(n: int) -> Poset:
    """Total order 1 < 2 < .. < n."""
    return disjoint_chains(n, 1)


def antichain(n: int) -> Poset:
    """n pairwise-incomparable elements (recovers the Hamming metric)."""
    _check_size(n)
    masks = [1 << i for i in range(n)]
    return Poset._trusted(n, masks, masks)


# -- description files ---------------------------------------------------------

_CONSTRUCTOR_KEYS = ("covers", "weak_order", "chain", "antichain", "disjoint_chains")


def poset_from_dict(obj) -> Poset:
    """Build a poset from its JSON description (exactly one constructor key)."""
    _, build = poset_builder(obj)
    return build()


def poset_builder(obj):
    """Check a poset description without building its order: return the
    ground-set size it declares and a call that builds the poset.  Only
    the checks that need the order masks, such as cycles among the covers,
    are left to that call."""
    if not isinstance(obj, dict):
        raise InputError(f"poset description must be an object, got {type(obj).__name__}")
    present = [k for k in _CONSTRUCTOR_KEYS if k in obj]
    if len(present) != 1:
        raise InputError(
            f"exactly one of {_CONSTRUCTOR_KEYS} must be present, found {present or 'none'}"
        )
    key = present[0]
    allowed = {key} | ({"n"} if key == "covers" else set())
    extra = set(obj) - allowed
    if extra:
        raise InputError(f"unexpected keys in poset description: {sorted(extra)}")
    if key == "covers":
        if "n" not in obj or not _is_int(obj["n"]):
            raise InputError('poset description with "covers" requires an integer "n"')
        covers = obj["covers"]
        if not isinstance(covers, list) or any(
            not isinstance(c, list) or len(c) != 2 for c in covers
        ):
            raise InputError('"covers" must be a list of [a, b] pairs')
        covers = [tuple(c) for c in covers]
        _check_covers(obj["n"], covers)
        return obj["n"], partial(_cover_closure, obj["n"], covers)
    if key == "weak_order":
        if not isinstance(obj[key], list) or not all(map(_is_int, obj[key])):
            raise InputError('"weak_order" must be a list of integer block sizes')
        sizes = _block_sizes(obj[key])
        return sum(sizes), partial(weak_order, sizes)
    if key == "chain":
        if not _is_int(obj[key]):
            raise InputError('"chain" must be an integer')
        _check_chains(obj[key], 1)
        return obj[key], partial(chain, obj[key])
    if key == "antichain":
        if not _is_int(obj[key]):
            raise InputError('"antichain" must be an integer')
        _check_size(obj[key])
        return obj[key], partial(antichain, obj[key])
    params = obj["disjoint_chains"]
    if (
        not isinstance(params, dict)
        or set(params) != {"length", "count"}
        or not all(_is_int(params[f]) for f in ("length", "count"))
    ):
        raise InputError('"disjoint_chains" must be {"length": int, "count": int}')
    _check_chains(params["length"], params["count"])
    size = params["length"] * params["count"]
    return size, partial(disjoint_chains, params["length"], params["count"])


def _read_json(path):
    """Parse a UTF-8 JSON file; undecodable, malformed or unreadably deep or
    long text is an InputError."""
    text = read_utf8(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    except ValueError:
        # json hands each integer literal to int(), which refuses one past
        # CPython's int->str digit limit
        raise InputError(f"{path}: an integer literal has too many digits to read") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read") from None


def load_poset(path) -> Poset:
    """Read a poset description file (JSON)."""
    return poset_from_dict(_read_json(path))
