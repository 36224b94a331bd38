"""Exact-arithmetic calculus of Rees valuations and their root extensions.

The package computes, with integers only: Rees valuations
and Rees integers of monomial ideals from their Newton polyhedra;
integral closures of powers, with an independent cone-membership
oracle; the invariants (degree, ramification, residue degree) of the
valuation towers obtained by adjoining roots of the distinguished
degree element; radicality of the extended principal ideal; and Krull
consistent systems with their realization plans.
"""

__version__ = "0.1.0"
