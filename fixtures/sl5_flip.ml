# sl5 twisted by the diagram flip (type 2A4); relative type BC2.
# The cartan rows h1 + h4 and h2 + h3 are fixed by the flip.
multiloop type=A rank=4 n=1 m=2
sigma diagram 3 2 1 0
cartan h 1 0 0 1
cartan h 0 1 1 0
