import numpy as np
import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_report(request):
    """Record a one-line pass/fail verdict for an acceptance criterion."""

    def record(number, description, passed, detail=""):
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {number:>2} {status}: {description}"
        if detail:
            line += f"  ({detail})"
        _ACCEPTANCE_LINES.append((number, line))
        print(line)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20180725)


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_x_state(rng):
    """A random valid X-form state (not uniform, just well spread)."""
    from mirroratoms.dynamics import XState

    p = rng.dirichlet(np.ones(4))
    p_g, p_e, p_a, p_s = p
    # coherence bounds from the two positivity blocks
    ge_max = np.sqrt(p_g * p_e)
    as_max = np.sqrt(p_a * p_s)
    ge = ge_max * rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
    as_ = as_max * rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
    return XState(p_g, p_e, p_a, p_s, rho_as=as_, rho_ge=ge)


_SIGMA_Y_PAIR = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)


def concurrence_oracle(rho, atol=1e-10):
    """Wootters concurrence of a general two-qubit density matrix.

    Square roots of the eigenvalues of rho * (sigma_y x sigma_y) rho^*
    (sigma_y x sigma_y), sorted descending: max{0, l1 - l2 - l3 - l4}
    (Wootters, PRL 80, 2245 (1998)).  The independent reference for
    :func:`mirroratoms.entanglement.concurrence_x`.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not hermitian")
    if abs(np.trace(rho).real - 1.0) > atol:
        raise ValueError("density matrix trace must be 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise ValueError("density matrix is not positive semidefinite")
    flipped = _SIGMA_Y_PAIR @ rho.conj() @ _SIGMA_Y_PAIR
    lam = np.linalg.eigvals(rho @ flipped)
    lam = np.sqrt(np.clip(lam.real, 0.0, None))
    lam[::-1].sort()
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
