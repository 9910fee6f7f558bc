"""Round-trip every cubical matrix through its 3-word encoding.

A cubical matrix is flattened to a sorted word of (level, row, column)
triples, one per unit entry.  The script enumerates a small family, encodes
and decodes each matrix, and prints the statistics recovered from the word
alone: column count, top level, total weight, and both margin vectors.
"""

from qstar.cubes import enumerate_Q
from qstar.words import decode, encode, word_stats

alpha = (2, 1)
beta = (1, 2)
n = 3
m = 2

matrices = enumerate_Q(alpha, beta, n, m)
print("%d cubical matrices for margins %s / %s, n=%d, weight %d" % (
    len(matrices), alpha, beta, n, m))
print()

for gamma in matrices:
    word = encode(gamma)
    assert decode(word, shape=(len(alpha), len(beta))) == gamma
    n_cols, top, weight, walpha, wbeta = word_stats(word)
    cols = ";".join("(%d,%d,%d)" % c for c in word.columns)
    print("  %-34s N=%d s=%d m=%d alpha=%s beta=%s" % (
        cols, n_cols, top, weight, walpha, wbeta))

print()
print("all %d words decoded back to their matrices" % len(matrices))
