"""Warm-keeper: pre-compute configured studies when their inputs change.

A serving deployment wants its popular studies answered from cache, not
computed on the first unlucky client.  The warm-keeper watches the
*fingerprints* of a configured set of registry studies — which fold in
the source digest — and re-submits any study whose fingerprint differs
from the last warmed stamp.  Deploying a new revision therefore triggers
one background re-computation per study, after which every submission
is a warm hit.

The stamp persists at ``<cache_dir>/service/warm_stamp.json`` so a
restarted service against an already-warm cache does nothing.  Without a
cache dir there is nothing durable to keep warm; the keeper still runs
(in-memory stamp), which keeps tests and ephemeral setups working.
"""

from __future__ import annotations

import asyncio
import json
import logging
from pathlib import Path
from typing import Optional, Sequence

from repro.runtime.cache import atomic_write_bytes
from repro.service.jobs import DONE, JobManager
from repro.service.requests import resolve_request

logger = logging.getLogger("repro.service")

STAMP_RELPATH = Path("service") / "warm_stamp.json"


class WarmKeeper:
    """Keeps the configured studies' cache entries warm."""

    def __init__(
        self,
        manager: JobManager,
        studies: Sequence[str],
        cache_dir: Optional[str] = None,
        interval_s: float = 300.0,
    ) -> None:
        self.manager = manager
        self.studies = tuple(studies)
        self.interval_s = float(interval_s)
        self._stamp_path = (
            Path(cache_dir) / STAMP_RELPATH if cache_dir else None
        )
        self._memory_stamp: dict = {}
        self.runs = 0  # completed run_once passes
        self.warmed_total = 0

    # -- stamp persistence -------------------------------------------------

    def _load_stamp(self) -> dict:
        if self._stamp_path is None:
            return self._memory_stamp
        try:
            return json.loads(self._stamp_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}

    def _store_stamp(self, stamp: dict) -> None:
        if self._stamp_path is None:
            self._memory_stamp = stamp
            return
        self._stamp_path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic: a warm pass killed mid-stamp must not leave a truncated
        # stamp that the next start misparses into "everything is cold".
        text = json.dumps(stamp, indent=2, sort_keys=True)
        atomic_write_bytes(self._stamp_path, text.encode("utf-8"))

    # -- warming -----------------------------------------------------------

    async def run_once(self) -> list[str]:
        """One warming pass; returns the names actually (re)computed.

        A study is re-submitted when its current request fingerprint
        differs from the stamped one — i.e. its params or the source
        revision changed since the last warm.  Submissions go through
        the regular job manager, so concurrent client requests for the
        same study coalesce onto the warming computation.
        """
        stamp = self._load_stamp()
        stamped = stamp.get("fingerprints", {})
        current: dict[str, str] = {}
        warmed: list[str] = []
        for name in self.studies:
            query = resolve_request({"study": name})
            current[name] = query.fingerprint()
            if stamped.get(name) == current[name]:
                continue
            job, mode = self.manager.submit(query)
            await job.done.wait()
            if job.state == DONE:
                warmed.append(name)
                logger.info("warm-keeper: %s warmed (%s)", name, mode)
            else:
                # Leave the stamp un-advanced so the next pass retries.
                current[name] = stamped.get(name, "")
                logger.warning("warm-keeper: %s failed: %s", name, job.error)
        self._store_stamp({"fingerprints": current})
        self.runs += 1
        self.warmed_total += len(warmed)
        return warmed

    async def run_forever(self) -> None:
        """Warm now, then re-check every ``interval_s`` seconds."""
        while True:
            try:
                await self.run_once()
            except asyncio.CancelledError:
                raise
            except RuntimeError:
                return  # manager draining — service is shutting down
            except Exception:
                logger.exception("warm-keeper pass failed")
            await asyncio.sleep(self.interval_s)

    def stats(self) -> dict:
        return {
            "studies": list(self.studies),
            "interval_s": self.interval_s,
            "runs": self.runs,
            "warmed_total": self.warmed_total,
        }
