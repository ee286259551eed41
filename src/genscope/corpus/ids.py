"""An exact, compact table of string ids.

``analyze`` keeps two tables of ids: the ids ``ingest`` has accepted, so
that a repeat is rejected, and the tweets' external sentiment labels. A
``set`` or ``dict`` of str holds about 80 to 90 bytes per id beyond the
id's own bytes; an ``IdTable`` holds 24, and one or two more for its
Bloom filter.

Each id's UTF-8 bytes (``surrogatepass``, since a JSON string can carry
a lone surrogate) go into one blob, in the order the ids were added, with
an array of where each ends. Lookups go through sorted numpy runs of
64-bit digests, each paired with the ids' positions, after the
log-structured merge-tree (O'Neil et al., "The log-structured
merge-tree", Acta Informatica 33, 1996): each batch of new ids becomes a
run, and runs of like size merge, so a lookup searches a few runs, and
a Bloom filter in front lets most absent ids skip them. The digest is
``hash``: a str caches it, and a forked child shares the process's salt.
Every digest hit is confirmed against the id's bytes, so no answer
depends on the digest or on the salt.
"""

from __future__ import annotations

from array import array
from itertools import islice

import numpy as np

digest = hash  # looked up at each call, so a test can make it collide

# Entries past which two runs are not merged. A merge holds about 21 bytes
# per entry of the merged run beyond the two runs it replaces, so the cap
# bounds that peak at about 5.5 MB, for a lookup that searches more runs:
# six at a million ids, against two with no cap.
RUN_CAP = 1 << 18

# keys that ``extend`` reads and copies in at once
CHUNK = 256

# Bits per id, at least, of the Bloom filter (Bloom, "Space/time trade-offs
# in hash coding with allowable errors", CACM 13(7), 1970) in front of the
# runs. Each id sets two bits, so at most about one absent id in twenty
# passes it, and a block of new ids mostly skips the runs' binary searches.
FILTER_BITS = 8


class IdTable:
    """Distinct str ids, in the order added, each at a position from 0."""

    def __init__(self):
        self.blob = bytearray()  # every id's bytes, back to back
        self.ends = array("q")  # where each id's bytes end in blob
        # (sorted digests, the positions of their ids) pairs, oldest first
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []
        self.filter = np.zeros(1, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        """Each id, in the order added."""
        blob, start = self.blob, 0
        for end in self.ends:
            yield blob[start:end].decode("utf-8", "surrogatepass")
            start = end

    def _bytes(self, position: int) -> bytes:
        start = self.ends[position - 1] if position else 0
        return self.blob[start:self.ends[position]]

    def extend(self, keys) -> np.ndarray:
        """Add each of ``keys``, read ``CHUNK`` at a time, that repeats no
        key before it, as one run; no key may already be in the table.
        Returns one bool per key, true where the key repeats an earlier one
        and was left out: the keys are sorted by digest once, and of equal
        keys, whose digests sit together, the first to come is kept."""
        first, base = len(self.ends), len(self.blob)
        keys, digests = iter(keys), array("q")
        while chunk := list(islice(keys, CHUNK)):
            hashes = np.fromiter(map(digest, chunk), dtype=np.int64, count=len(chunk))
            digests.frombytes(hashes.tobytes())
            text = "".join(chunk)
            if text.isascii():  # a char is a byte
                self.blob += text.encode("ascii")
            else:
                chunk = [key.encode("utf-8", "surrogatepass") for key in chunk]
                self.blob += b"".join(chunk)
            ends = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk)).cumsum()
            ends += self.ends[-1] if self.ends else 0
            self.ends.frombytes(ends.tobytes())
        if not digests:
            return np.zeros(0, dtype=bool)
        digests = np.frombuffer(digests, dtype=np.int64)
        order = np.argsort(digests)
        digests = digests[order]
        repeats = np.zeros(len(order), dtype=bool)
        ties = digests[1:] == digests[:-1]
        if ties.any():
            shared = np.flatnonzero(np.append(ties, False) | np.insert(ties, 0, False))
            groups = np.split(order[shared], np.flatnonzero(np.diff(digests[shared])) + 1)
            for group in groups:  # of keys with one digest
                seen: set[bytes] = set()
                for i in sorted(group.tolist()):  # in the order they came
                    key = bytes(self._bytes(first + i))
                    repeats[i] = key in seen
                    seen.add(key)
        if repeats.any():
            self._drop(first, base, repeats)
            kept = ~repeats[order]
            digests = digests[kept]
            order = (np.cumsum(~repeats) - 1)[order[kept]]
        order += first
        self._add_run(digests, order)
        return repeats

    def _drop(self, first: int, base: int, repeats: np.ndarray) -> None:
        """Cut out the ids from position ``first`` (at byte ``base``) on
        that ``repeats`` marks."""
        ends = np.array(self.ends[first:], dtype=np.int64)
        lengths = np.diff(ends, prepend=base)
        kept = ~repeats
        tail = np.frombuffer(self.blob, dtype=np.uint8, offset=base)[np.repeat(kept, lengths)]
        tail = tail.tobytes()  # the view of the blob is gone, so it can shrink
        del self.blob[base:], self.ends[first:]
        self.blob += tail
        self.ends.frombytes((np.cumsum(lengths[kept]) + base).tobytes())

    def _add_run(self, digests: np.ndarray, positions: np.ndarray) -> None:
        """Add a run, and merge the newest two runs while the older is at
        most twice the newer and the merged run holds at most RUN_CAP
        entries: each run is then more than twice the next, but for the
        capped ones."""
        runs = self.runs
        runs.append((digests, positions))
        if len(self) * FILTER_BITS <= 8 * self.filter.size:
            self._mark(digests)
        else:  # a filter twice the size it needs, of every run
            size = 1 << (len(self) * FILTER_BITS // 4).bit_length()  # bytes
            self.filter = np.zeros(size, dtype=np.uint8)
            for run, _ in runs:
                self._mark(run)
        while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]) and (
            len(runs[-1][0]) + len(runs[-2][0]) <= RUN_CAP
        ):
            newer = runs.pop()
            runs.append(_merged(runs.pop(), newer))

    def _bits(self, digests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two filter bits of each of ``digests``: one from its low
        bits, one from its bits from the 33rd on."""
        mask = 8 * self.filter.size - 1
        return digests & mask, (digests >> 32) & mask

    def _mark(self, digests: np.ndarray) -> None:
        """Set the filter bits of ``digests``, 1,024 at a time, so that the
        index arrays stay small beside the table."""
        for start in range(0, len(digests), 1 << 10):
            for bits in self._bits(digests[start:start + (1 << 10)]):
                np.bitwise_or.at(self.filter, bits >> 3, (1 << (bits & 7)).astype(np.uint8))

    def find(self, keys: list[str]) -> np.ndarray:
        """The position of each of ``keys`` in the table, or -1: the keys
        the filter passes are looked up with one binary search per run of
        all their digests."""
        found = np.full(len(keys), -1, dtype=np.int64)
        if not self.runs or not keys:
            return found
        digests = np.fromiter(map(digest, keys), dtype=np.int64, count=len(keys))
        low, high = self._bits(digests)
        bits = self.filter
        maybe = np.flatnonzero((bits[low >> 3] >> (low & 7)) & (bits[high >> 3] >> (high & 7)) & 1)
        if not maybe.size:
            return found
        # the keys the filter passes, in digest order, so that each binary
        # search starts where the last one ended, in memory it has just read
        order = maybe[np.argsort(digests[maybe])]
        digests = digests[order]
        blob, ends = self.blob, np.frombuffer(self.ends, dtype=np.int64)
        for run, positions in self.runs:
            at = np.minimum(np.searchsorted(run, digests), len(run) - 1)
            hits = np.flatnonzero(run[at] == digests)
            if not hits.size:
                continue
            at, hits = at[hits], order[hits]
            # the first id of each hit's digest, most often its only one
            first = positions[at]
            starts = np.where(first > 0, ends[first - 1], 0).tolist()
            same = np.array([
                blob[start:stop] == keys[i].encode("utf-8", "surrogatepass")
                for i, start, stop in zip(hits.tolist(), starts, ends[first].tolist())
            ])
            found[hits[same]] = first[same]
            for i, j in zip(hits[~same].tolist(), at[~same].tolist()):
                position = self._later(keys[i], run, positions, j)
                if position >= 0:
                    found[i] = position
        return found

    def _later(self, key: str, run: np.ndarray, positions: np.ndarray, j: int) -> int:
        """The position of ``key`` among the ids after entry ``j`` of ``run``
        that share its digest, or -1: a digest collision, which is rare."""
        key = key.encode("utf-8", "surrogatepass")
        while j + 1 < len(run) and run[j + 1] == run[j]:
            j += 1
            if self._bytes(int(positions[j])) == key:
                return int(positions[j])
        return -1


def _merged(older, newer) -> tuple[np.ndarray, np.ndarray]:
    """One run of the entries of two, in digest order."""
    (old_digests, old_positions), (new_digests, new_positions) = older, newer
    at = np.searchsorted(old_digests, new_digests) + np.arange(len(new_digests))
    rest = np.ones(len(old_digests) + len(new_digests), dtype=bool)
    rest[at] = False
    digests = np.empty(rest.size, dtype=np.int64)
    positions = np.empty(rest.size, dtype=np.int64)
    digests[at], digests[rest] = new_digests, old_digests
    positions[at], positions[rest] = new_positions, old_positions
    return digests, positions
