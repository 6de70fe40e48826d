"""Queue scheduling disciplines.

Every policy is service-blind: the order of service never depends on the
individual service requirements, and no packet is ever discarded.  The
preemptive LCFS variant is preempt-resume: suspended work is kept and
finished later, so all generated packets are eventually delivered.
"""

from __future__ import annotations

from enum import Enum


class Discipline(Enum):
    """Scheduling policy names as used in configs and on the CLI."""

    FCFS = "fcfs"
    LCFS_PREEMPTIVE = "lcfs-p"
    LCFS_NONPREEMPTIVE = "lcfs-np"
    INFINITE_SERVER = "inf"

    @property
    def single_server(self) -> bool:
        return self is not Discipline.INFINITE_SERVER
