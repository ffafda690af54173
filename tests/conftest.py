import numpy as np
import pytest

from micropull import DeflectionField, EquilibriumResult, build_mesh, builtin_catalog, select_specimen


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture(scope="session")
def st1_1_measured(catalog):
    return select_specimen(catalog, "ST1-1", "measured")


@pytest.fixture(scope="session")
def st1_4_measured(catalog):
    return select_specimen(catalog, "ST1-4", "measured")


@pytest.fixture(scope="session")
def st1_6_measured(catalog):
    return select_specimen(catalog, "ST1-6", "measured")


@pytest.fixture(scope="session")
def sweep_point(st1_1_measured):
    """Factory of sweep points: ``EquilibriumResult``s on a 4-element mesh of
    measured ST1-1, undeflected but at the tip DOF."""
    mesh = build_mesh(st1_1_measured, 4)

    def make(voltage, tip_displacement, converged, iterations):
        dofs = np.zeros(3 * mesh.n_nodes)
        dofs[-2] = tip_displacement
        reason = None if converged else "gap closure"
        return EquilibriumResult(
            DeflectionField(mesh, dofs), converged, iterations, voltage, reason
        )

    return make
