"""The benchmark's workloads, by name."""

from perfbench.workloads.bisim import Bisim
from perfbench.workloads.laws import Laws
from perfbench.workloads.lift import Lift
from perfbench.workloads.logrel import Logrel

WORKLOADS = {"logrel": Logrel, "bisim": Bisim, "laws": Laws, "lift": Lift}


def make_workload(name, workdir):
    """A workload instance; workdir holds the files ``lift`` generates."""
    return Lift(workdir) if name == "lift" else WORKLOADS[name]()
