"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

import slognorm.matcore as matcore


class BlockThreads:
    """Sets the core count that the block engine sees and records the
    thread count :func:`slognorm.matcore._block_workers` picks for each
    call of :func:`slognorm.slognorm._moment_blocks`."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch):
        self._monkeypatch = monkeypatch
        self.picked: list[int] = []
        pick = matcore._block_workers

        def recording(nblocks: int) -> int:
            threads = pick(nblocks)
            self.picked.append(threads)
            return threads

        monkeypatch.setattr(matcore, "_block_workers", recording)

    def cores(self, n: int) -> None:
        """See ``n`` available cores from now on, with no picks recorded yet."""
        self._monkeypatch.setattr(matcore, "_available_cores", lambda: n)
        self.picked.clear()

    def across(self, call, cores=(1, 2, 3, 8)) -> dict:
        """{n: call()} with n available cores, for each n in ``cores``;
        ``picked`` then holds the picks of the last run."""
        results = {}
        for n in cores:
            self.cores(n)
            results[n] = call()
        return results

    @staticmethod
    def can_fan_out() -> bool:
        """Whether blocks fan out at all: only when OpenBLAS can be held."""
        return matcore._openblas_controls() is not None


@pytest.fixture
def block_threads(monkeypatch) -> BlockThreads:
    return BlockThreads(monkeypatch)
