"""
Growth of satisfying-tuple counts, with explicit witness structures
===================================================================

"""

from chainrep import Signature, parse
from chainrep import (brute_growth, growth_degree, growth_lower_witness,
                      no_decrement_witness, pump_witness)

sig = Signature(("P1",))
f = parse("x < y", sig)

# the growth degree is the minimal reparameterization dimension
d = growth_degree(f, sig, ("x", "y"))
print("degree:", d)

# counted exactly on small words: a pool of n positions holds n(n-1)/2 pairs
for n in (1, 2, 3, 4):
    print(f"g({n}) =", brute_growth(f, sig, ("x", "y"), n, max_len=6))

# pumping one variable produces n+1 witnesses on one word
print()
print(pump_witness(parse("P1(x)", sig), sig, "x", 3).dump())

# doubling choices per variable keeps them independent: (2N)^k tuples
print()
print(no_decrement_witness(f, sig, ("x", "y"), 2).dump())

# the lower-bound construction repeats the words of the automaton's chain
# of IDA pairs n times each; counting tuples on the word beats n^d
print()
w = growth_lower_witness(f, sig, ("x", "y"), 3)
print(w.dump())
print("oracle count:", w.oracle_count(), ">= 3^2")
