"""Reference implementations the tests check the package against.

Word primitives the package itself never calls: the all-ones word mask,
floor-lg (plain and by de Bruijn multiplication), the differing-bit
position, the low-bit mask, forcing a word's low bits to ones or zeros
(with the bit-index check and its ``IndexOutOfWidth``), and the
packed-block masks that a node's query-replication multiplier and
separator mask must equal.  Also the per-bit exact sketch and the
per-pattern order check of a multiplicative sketch constant.  The
compressed trie's one-descent search (``trs``), its in-place splice
(``trie_insert``) and its two whole-structure walks (``trie_leaves``,
``trie_to_tuple``), which check that a spliced trie equals the one built
from all its keys.  The per-call input generator that ``bench.generate``
must reproduce key for key, and a digits-only reader of key files that
``bench.read_keys`` must agree with.  And the loop form of
``FusionNode.locate`` that its straight-line passes must match probe
for probe, and the fuller multiplier search whose constants the lean
one must equal.  A counting word, which tallies the word operations run
on it, so a test can set what ``locate`` charges beside what it runs.
And the one cold start: every cache a fresh process starts without.
"""

import random
from bisect import insort

from fusionsort import sketch
from fusionsort.sketch import _SEARCH_BUDGET, NoValidMultiplier, _order_preserving
from fusionsort.trie import DuplicateKey, _Branch, _Leaf
from fusionsort.wordops import WIDTHS, WordError, _check_width, check_word


class IndexOutOfWidth(WordError):
    """Bit index outside [0, width)."""


class ZeroWord(WordError):
    """floor(lg x) requested for x = 0."""


class EqualWords(WordError):
    """Differing-bit position requested for two equal words."""


def word_mask(width: int) -> int:
    """All-ones word of the given width."""
    _check_width(width)
    return (1 << width) - 1


def msb(x: int, width: int = 64) -> int:
    """Position of the most significant set bit of x, i.e. floor(lg x)."""
    check_word(x, width)
    if x == 0:
        raise ZeroWord("floor(lg 0) is undefined")
    return x.bit_length() - 1


# Portable fallback: isolate the top set bit as a power of two, then map
# 2**k -> k with a de Bruijn multiplication and a per-width lookup table.
_DEBRUIJN_CONST = {
    8: 0x1D,
    16: 0x09AF,
    32: 0x077CB531,
    64: 0x03F79D71B4CB0A89,
}
_DEBRUIJN_SHIFT = {8: 5, 16: 12, 32: 27, 64: 58}


def _debruijn_table(width: int) -> tuple[int, ...]:
    const = _DEBRUIJN_CONST[width]
    shift = _DEBRUIJN_SHIFT[width]
    wm = (1 << width) - 1
    tab = [-1] * width
    for i in range(width):
        tab[((const << i) & wm) >> shift] = i
    return tuple(tab)


_DEBRUIJN_TABLE = {w: _debruijn_table(w) for w in WIDTHS}


def msb_debruijn(x: int, width: int = 64) -> int:
    """Reference floor(lg x) without a hardware bit-length instruction.

    Smears the top bit downward, isolates it, then multiplies by a de
    Bruijn constant so the top log2(width) bits index a lookup table.
    Must agree bit-exactly with msb() for every input.
    """
    check_word(x, width)
    if x == 0:
        raise ZeroWord("floor(lg 0) is undefined")
    s = 1
    while s < width:
        x |= x >> s
        s <<= 1
    x = (x >> 1) + 1  # exactly 2**msb
    idx = ((x * _DEBRUIJN_CONST[width]) & word_mask(width)) >> _DEBRUIJN_SHIFT[width]
    return _DEBRUIJN_TABLE[width][idx]


def delta(s1: int, s2: int, width: int = 64) -> int:
    """Most significant bit position at which two equal-width words differ."""
    check_word(s1, width)
    check_word(s2, width)
    if s1 == s2:
        raise EqualWords(f"words are equal ({s1}); no differing bit")
    return (s1 ^ s2).bit_length() - 1


def _check_bit(b: int, width: int) -> None:
    if isinstance(b, bool) or not isinstance(b, int):
        raise WordError(f"bit index must be an int, got {type(b).__name__}")
    if not 0 <= b < width:
        raise IndexOutOfWidth(f"bit index {b} outside [0, {width})")


def clear_low_bits(x: int, b: int, width: int = 64) -> int:
    """x with bits b..0 forced to zero."""
    check_word(x, width)
    _check_bit(b, width)
    return x & ~((1 << (b + 1)) - 1) & word_mask(width)


def set_low_bits(x: int, b: int, width: int = 64) -> int:
    """x with bits b..0 forced to one."""
    check_word(x, width)
    _check_bit(b, width)
    return x | ((1 << (b + 1)) - 1)


def trailing_ones_mask(b: int, width: int = 64) -> int:
    """Word with bits b..0 set and all higher bits clear: 2**(b+1) - 1."""
    _check_width(width)
    _check_bit(b, width)
    return (1 << (b + 1)) - 1


def _check_blocks(block_size: int, block_count: int, width: int) -> None:
    _check_width(width)
    if block_size < 1 or block_count < 1:
        raise WordError("block size and count must be at least 1")
    if block_size * block_count > width:
        raise OverflowError(
            f"{block_count} blocks of {block_size} bits exceed a {width}-bit word"
        )


def block_leading_bits_mask(block_size: int, block_count: int, width: int = 64) -> int:
    """Word with the top bit of each of block_count contiguous blocks set.

    For block_size r these are bit positions r-1, 2r-1, 3r-1, ...: the
    separator positions of a packed sketch vector.
    """
    _check_blocks(block_size, block_count, width)
    total = block_size * block_count
    unit = ((1 << total) - 1) // ((1 << block_size) - 1)  # bit 0 of each block
    return unit << (block_size - 1)


def block_low_bits_mask(block_size: int, block_count: int, width: int = 64) -> int:
    """Word with bit 0 of each block set: the query-replication multiplier."""
    _check_blocks(block_size, block_count, width)
    total = block_size * block_count
    return ((1 << total) - 1) // ((1 << block_size) - 1)


def sketch_exact(scheme, x: int) -> int:
    """Relevant bits of x packed contiguously, most significant first."""
    s = 0
    for b in scheme.relevant_bits:
        s = (s << 1) | ((x >> b) & 1)
    return s


def order_preserving(bits_asc, width, mult, shift, plen) -> bool:
    """Per-pattern reference for ``sketch._order_preserving``: pattern p
    sets bit bits_asc[k] where p has bit k, and the padded images of
    p = 0, 1, ... must strictly increase."""
    wm = word_mask(width)
    lenm = (1 << plen) - 1
    prev = -1
    for pattern in range(1 << len(bits_asc)):
        y = 0
        for k, b in enumerate(bits_asc):
            y |= ((pattern >> k) & 1) << b
        img = (((y * mult) & wm) >> shift) & lenm
        if img <= prev:
            return False
        prev = img
    return True


def trs(trie, x: int) -> int:
    """Leaf of a non-empty ``CompressedTrie`` reached by following x's
    bit at every branch on the way down."""
    check_word(x, trie.width)
    return trie._descend(x)


def trie_insert(trie, x: int):
    """Splice x into a ``CompressedTrie`` in place; the single new branch
    bit is delta(x, trs(x)).  Must give the trie built from all the keys."""
    check_word(x, trie.width)
    if trie.root is None:
        trie.root = _Leaf(x)
        trie._keys = [x]
        return trie
    s = trie._descend(x)
    if s == x:
        raise DuplicateKey(f"duplicate key {x}")
    b = (x ^ s).bit_length() - 1
    leaf = _Leaf(x)
    parent = None
    node = trie.root
    while isinstance(node, _Branch) and node.bit > b:
        parent = node
        node = node.one if (x >> node.bit) & 1 else node.zero
    branch = _Branch(b, node, leaf) if (x >> b) & 1 else _Branch(b, leaf, node)
    if parent is None:
        trie.root = branch
    elif parent.one is node:
        parent.one = branch
    else:
        parent.zero = branch
    insort(trie._keys, x)
    return trie


def trie_leaves(trie) -> list[int]:
    """Keys in left-to-right leaf order (must equal sorted order)."""
    out: list[int] = []
    stack = [trie.root] if trie.root is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, _Leaf):
            out.append(node.key)
        else:
            stack.append(node.one)
            stack.append(node.zero)
    return out


def trie_to_tuple(trie):
    """Nested-tuple structural form: leaf -> key, branch -> (bit, zero, one)."""

    def form(node):
        if isinstance(node, _Leaf):
            return node.key
        return (node.bit, form(node.zero), form(node.one))

    return None if trie.root is None else form(trie.root)


def generate(dist: str, n: int, seed: int, width: int) -> list[int]:
    """Reference for ``bench.generate`` on valid arguments: one Python-level
    ``getrandbits`` or ``randrange`` call per draw."""
    rng = random.Random(f"{seed}:{dist}:{width}:{n}")
    if dist == "uniform":
        return [rng.getrandbits(width) for _ in range(n)]
    if dist in ("sorted", "reverse"):
        if width < 63:
            vals = sorted(rng.sample(range(1 << width), n))
        else:
            seen: set[int] = set()
            while len(seen) < n:
                seen.add(rng.getrandbits(width))
            vals = sorted(seen)
        return vals if dist == "sorted" else vals[::-1]
    if dist == "clustered":
        wm = (1 << width) - 1
        jitter = max(1, width // 4)
        centers = [rng.getrandbits(width) for _ in range(max(1, n // 1000))]
        return [(rng.choice(centers) + rng.getrandbits(jitter)) & wm
                for _ in range(n)]
    universe = max(1, -(-n // 10))
    pool = [rng.getrandbits(width) for _ in range(universe)]
    return [pool[rng.randrange(universe)] for _ in range(n)]


KEY_FILE_MAGIC = b"WRDKEYS\x00"
DIGITS = b"0123456789"


def read_key_file(data: bytes, width: int = 64):
    """Reference for ``bench.read_keys`` on a file's bytes: (keys, width
    from the header or None for text), or None where it must refuse the
    file.  Binary is the magic, one width byte and little-endian words of
    that width.  Text is lines split at newlines; each, stripped of ASCII
    whitespace, is blank or ASCII digits only, naming a word of width
    bits.  Lines past ``int()``'s digit limit are outside its domain."""
    if data.startswith(KEY_FILE_MAGIC):
        head = data[len(KEY_FILE_MAGIC):len(KEY_FILE_MAGIC) + 1]
        if not head or head[0] not in WIDTHS:
            return None
        step = head[0] // 8
        payload = data[len(KEY_FILE_MAGIC) + 1:]
        if len(payload) % step:
            return None
        return [int.from_bytes(payload[i:i + step], "little")
                for i in range(0, len(payload), step)], head[0]
    keys = []
    for line in data.split(b"\n"):
        text = line.strip(b" \t\n\r\x0b\x0c")
        if not text:
            continue
        value = 0
        for byte in text:
            if byte not in DIGITS:
                return None
            value = value * 10 + byte - DIGITS[0]
        if value >> width:
            return None
        keys.append(value)
    return keys, None


def locate(node, x: int, ops, trace: dict | None = None):
    """Reference for ``FusionNode.locate``: the same two passes, neighbour
    exit and far-end exit as one loop, sketch and count written once and
    charged by running sums; the exits compare bit positions, not xor
    values.
    Must agree with it on the answer, both charges and every trace field."""
    keys = node.keys
    t = len(keys)
    if t == 1:  # zero-length sketches always tie: one key compare
        k = keys[0]
        if trace is not None:
            trace.update(sketch=0, survivors=1, count=0, selected=k, word_ops=0)
        if k <= x:
            ops.key_compares += 2  # ... plus the membership compare
            return 1, k == x
        ops.key_compares += 1
        return 0, False
    # public views and the scheme only: fusion_node.py alone knows the state
    scheme, node_word, block = node.scheme, node.node_word, node.block_size
    unit, top_mask, word_bits = node._unit, node._top_mask, block * t
    mult, sk_bits = scheme.multiplier, scheme.relevant_bits
    sk_mask, sk_shift = scheme.mask, scheme.shift
    lenmask = (1 << scheme.padded_length) - 1
    # per-visit sketch charge: multiplier 1 leaves the masked bits in the
    # window, so only the mask and the shift run (and, shr)
    sk_ops = 2 if mult == 1 else 4 if mult is not None else 4 * len(sk_bits)
    y = x
    up = None  # pass 1; pass 2 sets it to x's bit at the fall-off point
    w = kc = 0
    while True:
        if mult == 1:
            q = (y & sk_mask) >> sk_shift
        elif mult is not None:
            q = (((y & sk_mask) * mult) >> sk_shift) & lenmask
        else:
            q = 0
            for b in sk_bits:
                q = (q << 1) | ((y >> b) & 1)
        w += sk_ops
        if up:
            w += 1  # q + 1: count the blocks <= sk(y)
            q += 1
        # replicate, subtract and mask: 3 ops, and in pass 1 a zero test
        # (pass 2's word always holds the far key's separator); floor-lg,
        # bit offset and block divide: 3 more if any separator survives
        survivors = (node_word - q * unit) & top_mask
        w += 4 if up is None else 3
        if survivors:
            c = (word_bits - survivors.bit_length()) // block
            w += 3
        else:
            c = t
        if up is not None:
            break
        if trace is not None:  # selected stays x if x is stored here
            trace.update(sketch=q, survivors=survivors, count=c, selected=x,
                         word_ops=w)
        j = min(c, t - 1)
        if c < t:
            kc = 1
            if keys[c] == x:
                ops.word_ops += w
                ops.key_compares += 2  # keys[c] == x, then the membership compare
                return c + 1, True
            if c:
                w += 3  # two xors and their comparison
                # comparing the xor values compares the differing-bit positions
                if (x ^ keys[c - 1]) < (x ^ keys[c]):
                    j = c - 1
        s = keys[j]
        if trace is not None:
            trace["selected"] = s
        b = (x ^ s).bit_length() - 1
        up = (x >> b) & 1
        # the neighbour on x's side, if any, branches from s above b: s
        # ends the run of keys that agree with x above b, and x sits just
        # past s (xor, direction test, neighbour xor and its compare)
        w += 4
        k = j + 1 if up else j - 1
        if not 0 <= k < t or (keys[k] ^ s).bit_length() - 1 > b:
            c = j + up
            break
        # the last key (up) or the first (down) branches from s below b:
        # the run reaches it, and x lies past every key or below every key
        # (its xor and compare)
        w += 2
        if ((keys[t - 1] if up else keys[0]) ^ s).bit_length() - 1 < b:
            c = t if up else 0
            break
        low = (1 << (b + 1)) - 1
        y = x | low if up else x & ~low
        w += 6  # floor-lg, shl, add, sub, or/and-not: the fall-off block's 8 + 2
    ops.word_ops += w
    ops.key_compares += kc + 1 if c else kc  # ... plus the membership compare
    return c, False


class CountingWord(int):
    """A word that adds one to ``tally[0]`` for each word operation run on
    it: arithmetic, logic, shift, compare, ``bit_length`` and truth test,
    the reflected forms included, so an int on the left counts too.
    Results are counting words on the same tally, except a compare's (a
    bool) and a floor division's (a block index): both are control
    values, and branching on them, comparing or adding them counts
    nothing."""

    def __new__(cls, value: int, tally: list):
        word = super().__new__(cls, value)
        word.tally = tally
        return word


def _counted(name: str, word_result: bool):
    op = getattr(int, name)

    def method(self, *args):
        self.tally[0] += 1
        value = op(self, *args)
        return CountingWord(value, self.tally) if word_result else value

    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__and__", "__rand__", "__or__", "__ror__",
              "__xor__", "__rxor__", "__invert__", "__lshift__",
              "__rlshift__", "__rshift__", "__rrshift__", "bit_length"):
    setattr(CountingWord, _name, _counted(_name, True))
for _name in ("__floordiv__", "__rfloordiv__", "__lt__", "__le__", "__gt__",
              "__ge__", "__eq__", "__ne__", "__bool__"):
    setattr(CountingWord, _name, _counted(_name, False))


def cold() -> None:
    """Empty both sketch caches, the package's only caches, as a fresh
    process has them."""
    sketch._scheme_cached.cache_clear()
    sketch._find_multiplier_cached.cache_clear()


def find_multiplier_dfs(bits: tuple[int, ...], width: int, lcap: int):
    """Reference for ``sketch._find_multiplier_cached`` (uncached): the
    search with a per-bit offsets list, a width test at the leaf, a
    repeated-shift skip and a budget test on entry.  Must return the
    same (multiplier, shift, padded_length) or raise as it does."""
    r = len(bits)
    if lcap < r:
        raise NoValidMultiplier(f"window cap {lcap} below bit count {r}")

    span = bits[-1] - bits[0] + 1
    if span <= lcap:
        # One shared shift: the bits are already close enough together.
        result = (1, bits[0], span)
        if _order_preserving(bits, width, *result):
            return result
        raise NoValidMultiplier("degenerate single-shift scheme failed verification")

    # General case: partition the ascending bits into consecutive runs,
    # one shift per run, so each run's window image mirrors its internal
    # spacing.  Cross-run product terms must fall outside the window
    # [0, lcap) and must not collide below it, where a carry could ripple
    # upward into the extracted field.
    budget = [_SEARCH_BUDGET]
    sigmas: list[int] = []
    offsets: list[int] = [0] * r  # window offset of each bit's target
    negatives: set[int] = set()

    def place(i: int, next_off: int):
        if budget[0] <= 0:
            return None
        if i == r:
            base = max(0, max(bits[k] - offsets[k] for k in range(r)))
            last = offsets[r - 1]
            if base + last >= width:
                return None
            mult = 0
            for sg in set(sigmas):
                mult |= 1 << (base + sg)
            return (mult, base, last + 1)
        for j in range(r - 1, i - 1, -1):  # longest run first
            gspan = bits[j] - bits[i] + 1
            if i == 0:
                bases = (0,) if gspan <= lcap else ()
            else:
                bases = range(next_off, lcap - gspan + 1)
            for o in bases:
                budget[0] -= 1
                if budget[0] <= 0:
                    return None
                sigma = o - bits[i]
                if sigma in sigmas:
                    continue  # covered by the merged-run alternative
                fresh: list[int] = []
                ok = True
                for k in range(r):
                    if i <= k <= j:
                        offsets[k] = o + (bits[k] - bits[i])
                        continue
                    p = bits[k] + sigma
                    if 0 <= p < lcap:
                        ok = False  # stray inside the window
                        break
                    if p < 0:
                        if p in negatives:
                            ok = False  # collision below the window
                            break
                        fresh.append(p)
                if ok:
                    sigmas.append(sigma)
                    negatives.update(fresh)
                    found = place(j + 1, o + gspan)
                    if found is not None:
                        return found
                    sigmas.pop()
                    negatives.difference_update(fresh)
        return None

    result = place(0, 0)
    if result is not None and _order_preserving(bits, width, *result):
        return result
    raise NoValidMultiplier(f"no constant found for bits {bits} within window {lcap}")
