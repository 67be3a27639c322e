"""divlat: exact divisor-lattice arithmetic with certified bound checks.

Truncated Mobius convolutions M(n,z), their integral moments, the
multiplicative energy of the divisor set, and verification campaigns
for the eta-product inequalities that drive the moment bounds.
`divlat.energy` is the function, not the module: `from divlat.energy import R_closed`.
"""

from .core import (
    Factorization,
    PrimeTable,
    binomial,
    divisors_sorted,
    eulerian,
    factorize,
    mobius,
    primorial,
    rosser_check,
    sieve_for_count,
    sieve_primes,
    surjections,
)
from .energy import (
    EnergyReport,
    ExactPolynomial,
    R_closed,
    T_monotonicity_check,
    T_ratio,
    T_s,
    brute_energy_oracle,
    energy,
    eulerian_asymptotic_gap,
    multinomial_identity_check,
    sign_interpolant,
    sign_lemma_check,
    sinc_integral_check,
    vandermonde_positivity,
)
from .errors import CapacityError, DomainError, InconclusiveError
from .moments import (
    DivisorProfile,
    H_chain_check,
    H_theta_exact,
    J_rho,
    alpha_enclosure,
    alpha_of_theta,
    chain_check,
    corollary_bound,
    corollary_exponent,
    divisor_profile,
    domination_check,
    envelope_violations,
    eta,
    interval_sum,
    interval_sum_check,
    max_omega_D,
    mertens_truncated,
    moment_by_parts,
    moment_stepwise,
    optimal_even_t,
    pe_envelope_check,
    tau_trunc,
    tau_trunc_check,
)
from .reports import BoundReport, CampaignResult

__version__ = "0.1.0"

#: names of the float engine, `campaigns`, which imports numpy at load: they
#: are read from it on first use, so `import divlat` loads no numpy
_CAMPAIGN_NAMES = frozenset({
    "ConstantC",
    "EtaAccumulator",
    "concavity_threshold",
    "constant_C_search",
    "eta_constant_upper",
    "hard_threshold",
    "induction_margin",
    "ln2_bound_check",
    "verify_c_easy",
    "verify_c_hard",
})


def __getattr__(name: str):
    if name in _CAMPAIGN_NAMES:
        from . import campaigns
        return getattr(campaigns, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
