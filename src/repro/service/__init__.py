"""DSE-as-a-service: an asyncio HTTP/JSON front-end over the cache substrate.

The batch stack answers "run this study" by computing (or re-reading)
every sweep point through the persistent characterization / evaluation /
trace caches.  This package puts a long-lived server in front of that
substrate so *many* clients share one cache.  The server runs a fixed
number of job slots (``workers``); each slot runs one study or sweep at
a time, serially, exactly as the batch stack would:

* :mod:`repro.service.requests` — study and sweep payloads resolved
  into one fingerprinted, runnable
  :class:`~repro.studies.pipeline.StudyRequest`;
* :mod:`repro.service.jobs` — the coalescing job manager (identical
  in-flight fingerprints share one computation; finished ones are memo
  hits) over the supervised job slots;
* :mod:`repro.service.ratelimit` — per-client token-bucket submission
  limiting;
* :mod:`repro.service.warm` — background pre-computation of configured
  studies whenever their fingerprints (inputs, source revision)
  change;
* :mod:`repro.service.http` — the dependency-free HTTP/SSE transport;
* :mod:`repro.service.app` — routing, lifecycle, graceful drain
  (:class:`ReproService`, :func:`serve`);
* :mod:`repro.service.client` — an asyncio client speaking the same
  dialect (used by the tests and ``examples/service_client.py``).

Start one from the CLI with ``nvmexplorer serve config/service.json``.
"""

from repro.service.app import ReproService, serve
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobManager
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.requests import resolve_request
from repro.service.warm import WarmKeeper

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "Job",
    "JobManager",
    "RateLimiter",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "TokenBucket",
    "WarmKeeper",
    "resolve_request",
    "serve",
]
