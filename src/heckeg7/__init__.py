"""2-dimensional representations of a rank-2 Hecke algebra at complex
parameter specializations: construction, irreducibility decisions validated
against a brute-force oracle, and exact symbolic verification of the
underlying algebraic identities.

Each name is imported from the module that defines it (heckeg7.exact,
heckeg7.irreducibility, ...); the package itself re-exports nothing."""
