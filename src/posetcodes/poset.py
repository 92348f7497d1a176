"""Finite partial orders on {1, .., n}: ideals, chains, width, file format.

Elements are 1-based everywhere in the public API, matching the usual
ground-set convention {1, 2, .., n}.  Internally the order relation is a
tuple of down-set bitmasks: bit ``e - 1`` of ``_down[i - 1]`` is set iff
``e <= i`` in the order.  Posets are immutable and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .errors import CycleError, EmptyInputError, InputError, RangeError


def _is_int(x) -> bool:
    """True for integers; false for booleans, which Python counts as integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _bits(mask: int):
    """Yield 0-based positions of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ChainPartition:
    """Disjoint chains whose union is the ground set {1, .., n}."""

    chains: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)


class Poset:
    """Immutable partial order on {1, .., n}.

    Constructing one validates the down-sets; ``_trusted`` skips that for
    masks the package itself built as a partial order.
    """

    __slots__ = ("n", "_down")

    @classmethod
    def _trusted(cls, n: int, down_masks) -> Poset:
        p = object.__new__(cls)
        p.n = n
        p._down = tuple(down_masks)
        return p

    def __init__(self, n: int, down_masks):
        if n < 1:
            raise RangeError(f"ground set size must be positive, got {n}")
        masks = tuple(int(m) for m in down_masks)
        if len(masks) != n:
            raise InputError(f"expected {n} down-sets, got {len(masks)}")
        universe = (1 << n) - 1
        for i, m in enumerate(masks):
            if m & ~universe:
                raise RangeError(f"down-set of {i + 1} mentions elements outside 1..{n}")
            if not (m >> i) & 1:
                raise InputError(f"relation is not reflexive at {i + 1}")
        for i, m in enumerate(masks):
            for j in _bits(m):
                if j != i and (masks[j] >> i) & 1:
                    raise CycleError(f"elements {j + 1} and {i + 1} are mutually comparable")
                if masks[j] & ~m:
                    raise InputError(f"relation is not transitive below {i + 1}")
        self.n = n
        self._down = masks

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
        """True iff every pair of elements of the subset is comparable."""
        els = [self._check_element(e) for e in subset]
        return all(self.comparable(a, b) for a, b in combinations(els, 2))

    def is_antichain(self) -> bool:
        return all(m == 1 << i for i, m in enumerate(self._down))

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (a, b): a < b with nothing strictly between."""
        out = []
        for b in range(self.n):
            below = self._down[b] & ~(1 << b)
            for a in _bits(below):
                between = below & ~(1 << a)
                if not any((self._down[c] >> a) & 1 for c in _bits(between)):
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
        succ = [
            [j for j in range(n) if j != i and (self._down[j] >> i) & 1]
            for i in range(n)
        ]
        match_l = [-1] * n
        match_r = [-1] * n

        def augment(root: int) -> bool:
            # Depth-first search for an augmenting path from root, without
            # recursion: path[d] is the successor that frame d is trying.
            seen = set()
            frames = [(root, iter(succ[root]))]
            path = []
            while frames:
                for j in frames[-1][1]:
                    if j not in seen:
                        break
                else:
                    frames.pop()
                    if path:
                        path.pop()
                    continue
                seen.add(j)
                path.append(j)
                if match_r[j] == -1:
                    for (i, _), j in zip(frames, path):
                        match_l[i] = j
                        match_r[j] = i
                    return True
                frames.append((match_r[j], iter(succ[match_r[j]])))
            return False

        matched = sum(augment(i) for i in range(n))
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


def from_cover_relations(n: int, covers) -> Poset:
    """Reflexive-transitive closure of the given cover pairs (a, b) = a < b."""
    if n < 1:
        raise RangeError(f"ground set size must be positive, got {n}")
    down = [1 << i for i in range(n)]
    for pair in covers:
        a, b = pair
        if not (_is_int(a) and _is_int(b)):
            raise InputError(f"cover pair {pair!r} is not a pair of integers")
        if not (1 <= a <= n and 1 <= b <= n):
            raise RangeError(f"cover pair {pair!r} outside 1..{n}")
        if a == b:
            raise InputError(f"cover pair {pair!r} relates an element to itself")
        down[b - 1] |= 1 << (a - 1)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if down[i] & bit:
                down[i] |= down[k]
    for i in range(n):
        for j in _bits(down[i]):
            if j != i and (down[j] >> i) & 1:
                raise CycleError(f"covers close into a cycle through {j + 1} and {i + 1}")
    return Poset._trusted(n, down)


def weak_order(block_sizes) -> Poset:
    """Ordinal sum of antichains; x < y iff x's block precedes y's block.

    Blocks are labeled consecutively: the first block gets 1..s1, the
    second s1+1..s1+s2, and so on.
    """
    sizes = tuple(int(s) for s in block_sizes)
    if not sizes:
        raise EmptyInputError("weak order needs at least one block")
    if any(s < 1 for s in sizes):
        raise RangeError(f"block sizes must be positive, got {sizes}")
    down = []
    below = 0
    start = 0
    for s in sizes:
        for i in range(start, start + s):
            down.append(below | (1 << i))
        for i in range(start, start + s):
            below |= 1 << i
        start += s
    return Poset._trusted(sum(sizes), down)


def disjoint_chains(chain_length: int, num_chains: int) -> Poset:
    """num_chains disjoint chains of chain_length elements, labeled column-major:
    chain j occupies labels (j-1)*chain_length + 1 .. j*chain_length, ascending."""
    if chain_length < 1 or num_chains < 1:
        raise RangeError(
            f"chain length and count must be positive, got ({chain_length}, {num_chains})"
        )
    down = []
    for j in range(num_chains):
        prefix = 0
        for i in range(chain_length):
            prefix |= 1 << (j * chain_length + i)
            down.append(prefix)
    return Poset._trusted(chain_length * num_chains, down)


def chain(n: int) -> Poset:
    """Total order 1 < 2 < .. < n."""
    return disjoint_chains(n, 1)


def antichain(n: int) -> Poset:
    """n pairwise-incomparable elements (recovers the Hamming metric)."""
    if n < 1:
        raise RangeError(f"ground set size must be positive, got {n}")
    return Poset._trusted(n, [1 << i for i in range(n)])


# -- description files ---------------------------------------------------------

_CONSTRUCTOR_KEYS = ("covers", "weak_order", "chain", "antichain", "disjoint_chains")


def poset_from_dict(obj) -> Poset:
    """Build a poset from its JSON description (exactly one constructor key)."""
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
        return from_cover_relations(obj["n"], [tuple(c) for c in covers])
    if key == "weak_order":
        if not isinstance(obj[key], list) or not all(map(_is_int, obj[key])):
            raise InputError('"weak_order" must be a list of integer block sizes')
        return weak_order(obj[key])
    if key == "chain":
        if not _is_int(obj[key]):
            raise InputError('"chain" must be an integer')
        return chain(obj[key])
    if key == "antichain":
        if not _is_int(obj[key]):
            raise InputError('"antichain" must be an integer')
        return antichain(obj[key])
    params = obj["disjoint_chains"]
    if (
        not isinstance(params, dict)
        or set(params) != {"length", "count"}
        or not all(_is_int(params[f]) for f in ("length", "count"))
    ):
        raise InputError('"disjoint_chains" must be {"length": int, "count": int}')
    return disjoint_chains(params["length"], params["count"])


def _read_json(path):
    """Parse a UTF-8 JSON file; undecodable or malformed text is an InputError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None


def load_poset(path) -> Poset:
    """Read a poset description file (JSON)."""
    return poset_from_dict(_read_json(path))
