"""cyarith: exact-arithmetic verification toolkit.

Eta-product q-expansions, CM Hecke eigenvalue systems, point counts over
finite fields, tensor-product L-factors, Euler-characteristic calculus
for iterated double covers, and intersection-lattice combinatorics for
hyperplane arrangements.  Everything is exact integer or rational
arithmetic; every headline identity is runnable via the `cyarith` CLI.

Each name is imported from the module that defines it, for example
`from cyarith.qseries import EtaProduct`; importing the package alone
loads none of its modules.
"""

__version__ = "0.1.0"
