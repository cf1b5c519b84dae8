import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from vnspec.algebra import WStarSystem
from vnspec.basic import BasicConstruction
from vnspec.cli import shipped_system_paths
from vnspec.descriptions import parse_system
from vnspec.pipeline import analyze_description

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def at_tolerance(obj, tol):
    """A copy of a system, a built system or a basic construction whose
    system holds ``tol``, every array shared and the subsystem re-parented
    onto the copy.  Every public stage reads the tolerance its system holds,
    so this is how a test runs one at a cutoff that the build itself would
    refuse."""
    if isinstance(obj, WStarSystem):
        return dataclasses.replace(obj, tol=tol)
    if isinstance(obj, BasicConstruction):
        system = at_tolerance(obj.gns.system, tol)
        return dataclasses.replace(obj, gns=dataclasses.replace(obj.gns, system=system),
                                   sub=dataclasses.replace(obj.sub, parent=system))
    system = at_tolerance(obj.system, tol)
    return dataclasses.replace(obj, system=system,
                               sub=dataclasses.replace(obj.sub, parent=system))


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """Tests that start `python -m vnspec` import it from this checkout too."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        yield


@pytest.fixture(scope="session")
def shipped_descriptions():
    return {d.name: d for d in (parse_system(p.read_text())
                                for p in shipped_system_paths())}


@pytest.fixture(scope="session")
def analyses(shipped_descriptions):
    """Full analyses of every shipped system, computed once per session."""
    return {name: analyze_description(desc)
            for name, desc in shipped_descriptions.items()}


@pytest.fixture(scope="session")
def m2_grading():
    """M_2 over the scalars with the grading automorphism Ad(diag(1,-1))."""
    from vnspec import build_explicit_system
    return build_explicit_system(2, [E12], np.eye(2) / 2,
                                 dynamics_unitary=np.diag([1.0, -1.0]))


@pytest.fixture(scope="session")
def m2_over_diagonal():
    """M_2 with the normalized trace over its diagonal subalgebra."""
    from vnspec import build_explicit_system
    return build_explicit_system(2, [E12], np.eye(2) / 2,
                                 dynamics_unitary=np.eye(2),
                                 sub_generators=[np.diag([1.0, -1.0])])
