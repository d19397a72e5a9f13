"""Central numerical tolerances.

Every floating-point comparison in the package goes through one of these
knobs; all lattice/poset reasoning downstream of context construction is
exact on integer masks and ids, so the numbers below only govern the
numeric boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10          # max-abs Hermiticity defect
    proj_idem: float = 1e-9      # max-abs idempotency defect of a projector
    trace_rank: float = 1e-8     # |trace - nearest integer| for projector rank
    psd_floor: float = -1e-10    # eigenvalue floor for density matrices
    trace_one: float = 1e-10     # |tr(rho) - 1|
    unit_norm: float = 1e-10     # state vector normalisation
    eig_group: float = 1e-8      # default eigenvalue grouping width
    atom: float = 1e-8           # atom equality / sum-of-atoms checks
    commute: float = 1e-9        # max-abs commutator norm
    certain: float = 1e-8        # support-projector containment test
    recon: float = 1e-7          # spectral reconstruction defect
    support_trace: float = 1e-10 # tr(rho * atom) > this means the atom meets the support
    vector_support: float = 1e-9 # ||E psi|| > this means the eigenvalue is in the support
    r_slack: float = 1e-10       # one-sided slack for the probability-r membership test
    eig_match: float = 1e-8      # matching eigenvalues across operators
    ortho_fixture: float = 1e-10 # orthogonality bound when validating bundled fixtures

    def __post_init__(self):
        # the generated hash would rehash every field on each dict lookup
        object.__setattr__(self, "_hash", hash(tuple(getattr(self, f.name) for f in fields(self))))

    def __hash__(self) -> int:
        return self._hash

    def overridden(self, **kwargs: float) -> "Tolerances":
        """Return a copy with the given fields replaced."""
        known = {f.name for f in fields(self)}
        bad = set(kwargs) - known
        if bad:
            raise KeyError(f"unknown tolerance name(s): {sorted(bad)}")
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(kwargs)
        return Tolerances(**current)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT = Tolerances()
