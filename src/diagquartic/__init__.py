"""Counting zeros of diagonal quartic forms x_1^4 + ... + x_n^4 = c over F_{p^m}.

Modules:
    field     -- F_{p^m} arithmetic, generators, quartic classes by Euler's
                 criterion, traces; the log and trace tables and the one table store
    cyclotomy -- cyclotomic classes (a view of the log table) and numbers,
                 the (s, t) decomposition
    counting  -- solution counts: the oracle (its addition table, convolution and
                 guard), closed forms, cyclotomic transfer matrices
    genfunc   -- rational generating functions and their series expansion
    expsums   -- Gauss periods mod primes l = 1 (mod p), and counts from them by CRT
    cli       -- command-line front end

Importing the package loads no numpy, and neither does a count read off the
generating function (`count_N`, `count_M`, `gf_N`/`gf_M` and their series).
Only the functions that build or read whole-field tables import it, on first use.
"""

from .field import Field, find_generator, index_of, quartic_class, trace
from .cyclotomy import QuarticDecomposition, quartic_decomposition
from .counting import count_M, count_N, count_small, oracle_count
from .genfunc import gf_M, gf_N

__all__ = [
    "Field", "find_generator", "index_of", "quartic_class", "trace",
    "QuarticDecomposition", "quartic_decomposition",
    "count_M", "count_N", "count_small", "oracle_count",
    "gf_M", "gf_N",
]

__version__ = "0.1.0"
