"""faultcheck: cross-procedural exception-flow & fork-protocol analyzer.

Statically proves the serve layer's fault-tolerance invariants over the
same :class:`~repro.devtools.effectcheck.index.PackageIndex` and
bottom-up fixed-point machinery effectcheck uses for purity:

* **REP013** — no taxonomy laundering: broad handlers re-raise
  ``HOST_ERRORS`` (MemoryError/SystemError/RecursionError);
* **REP014** — taxonomy exhaustiveness: every raise escaping the
  supervised query path is classifiable (Transient/Fatal/host/contract);
* **REP015** — fork-protocol safety: worker-reachable code installs no
  signal handlers, spawns nothing, touches no parent fds, and the
  worker entry resets inherited SIGTERM/SIGINT;
* **REP016** — journal torn-tail discipline: append-only handles,
  write→flush→fsync, no seek/truncate;
* **REP017** — restore-on-raise: try-scoped ranker mutations are
  restored in re-raising handlers.

Run it with ``python -m repro check``, whose program analysis
(:func:`repro.devtools.check.analyze_program`) builds the index and
summaries once for effectcheck and faultcheck together.  Stdlib-only:
the analyzed package is parsed, never imported.
"""

from .flows import (ExceptionTable, FaultFacts, RaiseFact, extract_facts,
                    propagate_raises, reachability)
from .rules import RULES, FaultContext, check_all

__all__ = [
    "ExceptionTable",
    "FaultContext",
    "FaultFacts",
    "RULES",
    "RaiseFact",
    "check_all",
    "extract_facts",
    "propagate_raises",
    "reachability",
]
