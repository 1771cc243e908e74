# sl4 twisted by the diagram flip (type 2A3); relative type C2 = B2.
# The cartan rows h1 + h3 and h2 are fixed by the flip.
multiloop type=A rank=3 n=1 m=2
sigma diagram 2 1 0
cartan h 1 0 1
cartan h 0 1 0
