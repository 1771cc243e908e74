# so8 twisted by the triality diagram automorphism (type 3D4) over Q(z3);
# relative type G2.  Node 1 is the branch node; the cartan rows
# h0 + h2 + h3 and h1 are fixed by the 3-cycle (0 2 3).
multiloop type=D rank=4 n=1 m=3
sigma diagram 2 1 3 0
cartan h 1 0 1 1
cartan h 0 1 0 0
