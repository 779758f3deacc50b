"""Design verification aids: fault injection, profiling, equivalence sweeps.

Section 2.3 of the paper frames simulation as a design-verification tool;
this package holds the experiments an engineer would run on top of the
simulator:

* :mod:`repro.analysis.faults` — specification-level stuck-at faults and
  run-time transient overrides (Section 2.3.2's "inserting a fault in the
  specification to cause errors by design"), with helpers to test whether
  a fault is observable at the machine's outputs;
* :mod:`repro.analysis.profiling` — activity profiles over a run: which
  components toggle, which memories are touched, where the cycles go;
* :mod:`repro.analysis.equivalence` — systematic cross-backend sweeps over
  the bundled machine library, extending the paper's interpreter-vs-
  compiler equivalence claim to every backend and machine at once.

Fault-injection ``override`` hooks run on every backend: the shared
instrumentation layer (:mod:`repro.core.instrument`) implements the hook
once, and every backend runs the specification's one schedule, so the
hook sees every component and the same fault gives the same result and
statistics everywhere.  Query ``supports_override`` on a backend or
prepared simulation to check a third-party backend programmatically.
"""

from repro.analysis.equivalence import (
    FaultDetection,
    LibraryVerification,
    fault_detection_experiment,
    verify_library,
)
from repro.analysis.faults import (
    TransientFault,
    inject_stuck_at,
    inject_stuck_bit,
    stuck_at_override,
    transient_override,
)
from repro.analysis.profiling import ActivityProfile, profile_activity

__all__ = [
    "FaultDetection",
    "LibraryVerification",
    "fault_detection_experiment",
    "verify_library",
    "TransientFault",
    "inject_stuck_at",
    "inject_stuck_bit",
    "stuck_at_override",
    "transient_override",
    "ActivityProfile",
    "profile_activity",
]
