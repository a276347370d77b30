"""The paper's recorded results: its verdict tables and the numbers of its
appendix computations.

Plain data.  ``coreduce verify-paper`` recomputes every entry and compares,
and the tests read the same tables, so each fact is stated once.  The
classifier does not read this module: a recorded fact is never an input to
its own check.

Verdict rows are ``(group, module, verdict)`` in the CLI grammar.
"""

from fractions import Fraction as F

from .classify import NO, NO_PAPER, YES, YES_PAPER

# -- Tori ---------------------------------------------------------------------
# the weights +-k are coreduced for every k; the suite checks one k
TORUS_PLUS_MINUS = (5, -5)
# these weights have a minimal relation with a coefficient above 1
TORUS_FOUR_SIX = (4, -4, 6, -6)
TORUS_FOUR_SIX_GENERATOR = (3, 0, 0, 2)

# -- Binary forms: a module is the tuple of degrees p of its summands R_p -----
SL2_YES = ((2,), (3,), (4,), (1, 1, 1, 1))
# two quadratics: the rank of the invariant differentials is below the codimension
SL2_TWO_QUADRATICS = (2, 2)
SL2_TWO_QUADRATICS_RANK = 2
SL2_TWO_QUADRATICS_CODIM = 3
# the sextic's bad toral slice lies on the weights TORUS_FOUR_SIX
SL2_SEXTIC = (6,)
# three copies of the 4-dimensional orthogonal module: a generating covariant
# whose multiplicity beats the bound on the ideal part
SO4_GROUP = "A1xA1"
SO4_MODULE = "3*[1,1]"
SO4_TARGET = (1, 1)
SO4_DEGREE = 3
SO4_MULTIPLICITY = 19
SO4_IDEAL_BOUND = 18

# -- Simple adjoint groups ----------------------------------------------------
# the smallest F4 module: its dimension, the multiplicity of its zero weight
# and the number of its nonzero weights
F4_26 = (0, 0, 0, 1)
F4_26_DIM = 26
F4_26_ZERO_MULTIPLICITY = 2
F4_26_NONZERO_WEIGHTS = 24
# F4 irreducibles whose roots all have at least the given multiplicity
F4_ROOT_MULTIPLICITY = (
    ((0, 1, 0, 0), 2),
    ((0, 0, 1, 0), 2),
    ((2, 0, 0, 0), 3),
    ((1, 0, 0, 1), 3),
    ((0, 0, 0, 2), 3),
)

EXCEPTIONAL = (
    ("G2", "[0,1]", YES),
    ("G2", "2*[1,0]", YES_PAPER),
    ("G2", "3*[1,0]", NO),
    ("F4", "[1,0,0,0]", YES),
    ("F4", "2*[0,0,0,1]", YES),
    ("F4", "3*[0,0,0,1]", NO),
    ("F4", "[1,0,0,0]+[0,0,0,1]", NO),
)

CLASSICAL = (
    ("A2", "[1,1]", YES),
    ("A2", "[3,0]", YES_PAPER),
    ("A3", "[0,2,0]", YES_PAPER),
    ("A2", "[6,0]", NO),
    ("A3", "[4,0,0]", NO),
    ("B3", "[2,0,0]", YES_PAPER),
    ("B3", "3*[1,0,0]", YES_PAPER),
    ("B3", "4*[1,0,0]", NO_PAPER),
    ("B3", "[0,0,2]", NO),
    ("B3", "[1,1,0]", NO),
    ("B3", "[3,0,0]", NO),
    ("C3", "[0,1,0]", YES_PAPER),
    ("C3", "[2,0,0]", YES),
    ("C4", "[0,0,0,1]", YES_PAPER),
    ("C3", "[1,0,1]", NO),
    ("D4", "[0,1,0,0]", YES),
    ("D4", "[2,0,0,0]", YES_PAPER),
    ("D4", "[0,0,2,0]", YES_PAPER),
    ("D4", "[0,0,0,2]", YES_PAPER),
)

# -- Irreducible modules of semisimple adjoint groups -------------------------
SEMISIMPLE = (
    ("B2xB3", "[1,0,1,0,0]", YES_PAPER),
    ("A1xG2", "[2,1,0]", YES_PAPER),
    ("A1xA1", "[2,2]", YES_PAPER),
    ("B2xG2", "[1,0,1,0]", NO),
    ("B2xB2xB2", "[1,0,1,0,1,0]", NO),
    ("A1xA1xA1", "[2,2,2]", NO),
    ("A2xA2", "[1,1,1,1]", NO),
)

# -- SL3 ----------------------------------------------------------------------
SL3_IRREDUCIBLE = (
    ("A2", "[1,0]", YES_PAPER),
    ("A2", "[2,0]", YES_PAPER),
    ("A2", "[3,0]", YES_PAPER),
    ("A2", "[0,1]", YES_PAPER),
    ("A2", "[0,2]", YES_PAPER),
    ("A2", "[0,3]", YES_PAPER),
    ("A2", "[1,1]", YES),
)
SL3_REDUCIBLE = (
    ("A2", "2*[1,0]", YES_PAPER),
    ("A2", "[1,0]+[0,1]", YES_PAPER),
    ("A2", "[2,0]+[0,1]", YES_PAPER),
    ("A2", "[2,0]+2*[0,1]", NO),
    ("A2", "2*[2,0]", NO),
    ("A2", "[1,1]+[2,0]", NO),
)
# each module and its dual get the same verdict
SL3_DUALS = (("[3,1]", "[1,3]"), ("[2,0]+[0,1]", "[0,2]+[1,0]"))
# the module [3,1]: its critical ratios, and the degree and multiplicity of a
# generating covariant of type [1,0]
SL3_V31 = "[3,1]"
SL3_V31_RATIOS = frozenset({F(1, 4), F(2, 5), F(1), F(5, 2), F(4)})
SL3_V31_COVARIANT_DEGREE = 8
SL3_V31_COVARIANT_MULTIPLICITY = 44

# -- Appendix A ---------------------------------------------------------------
# two copies of the 26-dimensional F4 module: support-matrix orbit bound
F4_SUPPORT_BOUND = 44
F4_SUPPORT_COLUMNS = 45
F4_SUPPORT_SINGLETONS = 34
# one row of the SL3-pair null-cone models: its index, entries, largest
# negative value and floor
SL3_PAIR_ROW = 5
SL3_PAIR_ROW_MODEL = (8, -3, -5, 6, -2, -4)
SL3_PAIR_ROW_MAX_NEGATIVE = 14
SL3_PAIR_ROW_FLOOR = 19

# -- Appendix B ---------------------------------------------------------------
# the 49-dimensional module of G2xG2: the number and dimension of its maximal
# sets; in degrees 1..9 of S(V), the multiplicities of the second factor's
# adjoint module and the invariant dimensions; a cap on the degree-9 ideal bound
G2XG2_GROUP = "G2xG2"
G2XG2_MODULE = "[1,0,1,0]"
G2XG2_MAXIMAL_SETS = 16
G2XG2_SET_DIM = 24
G2XG2_COVARIANT_SERIES = (0, 0, 1, 1, 3, 5, 12, 18, 41)
G2XG2_INVARIANT_SERIES = (0, 1, 1, 3, 2, 8, 7, 17, 19)
G2XG2_IDEAL_BOUND = 37
# four irreducibles of A2xA2, one grading each: multigraded invariant counts
A2XA2_SUMMANDS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
A2XA2_INVARIANTS = {(1, 1, 1, 1): 4, (2, 2, 2, 2): 37, (3, 3, 3, 3): 265}
