"""Operation tallies for the word-RAM cost model."""


class OpCounters:
    """Running totals of charged word operations and full-key comparisons.

    Word ops are charged cooperatively at the call sites that perform
    masked arithmetic/logic on machine words; full-key comparisons are
    charged wherever two keys are compared as whole values.  Totals only
    ever grow within a measured scope; callers snapshot before/after to
    scope a measurement.
    """

    __slots__ = ("word_ops", "key_compares")

    def __init__(self, word_ops: int = 0, key_compares: int = 0) -> None:
        self.word_ops = word_ops
        self.key_compares = key_compares

    def __repr__(self) -> str:
        return (f"OpCounters(word_ops={self.word_ops!r}, "
                f"key_compares={self.key_compares!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.snapshot() == other.snapshot()

    def snapshot(self) -> tuple[int, int]:
        return (self.word_ops, self.key_compares)
