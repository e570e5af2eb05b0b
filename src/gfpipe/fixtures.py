"""Golden fixtures: every sequence, triangle, continued fraction, and
production matrix the engine is expected to reproduce, with the build
expression that produces it.

Expected data is transcribed literal by literal from the printed tables it
mirrors (OEIS heads and the classical triangle displays); it is never
computed by the engine.  Entries are ints, "p/q" strings, or lists of ints
(ascending coefficients of a polynomial in r).  The ``source`` string says
what the data is, so every row can be audited against the OEIS entry or
the classical definition it came from.

Build strings use the expression language only; negative literals appear
as ``0-n`` because the grammar has no unary minus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dsl import Env, evaluate, parse
from .errors import MATH_ERRORS, ExprError
from .formats import CONVERSIONS, build_value, kind_name, kind_of
from .ratfun import FieldElem, fe


@dataclass(frozen=True)
class Fixture:
    id: str
    kind: str          # a value kind of formats.KINDS
    build: str         # expression text
    expected: object   # literal data, see module docstring
    source: str
    order: Optional[int] = None     # evaluation order override
    set_r: Optional[str] = None     # exact rational substituted after eval
    prefix: bool = False            # expected lists are prefixes


def _lit(v) -> FieldElem:
    if isinstance(v, int):
        return fe(v)
    if isinstance(v, str):
        return fe(Fraction(v))
    if isinstance(v, (list, tuple)):
        return FieldElem(tuple(int(c) for c in v))
    raise TypeError(f"bad literal {v!r}")


def decode_expected(fx: Fixture):
    return build_value(fx.kind, fx.expected, _lit)


# ---------------------------------------------------------------------------
# frequently reused expected tables

N1_ROWS = [
    [1], [1, 0], [1, 1, 0], [1, 3, 1, 0], [1, 6, 6, 1, 0],
    [1, 10, 20, 10, 1, 0], [1, 15, 50, 50, 15, 1, 0],
]
N2_ROWS = [
    [1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 6, 6, 1],
    [0, 1, 10, 20, 10, 1], [0, 1, 15, 50, 50, 15, 1],
]
N3_ROWS = [
    [1], [1, 1], [1, 3, 1], [1, 6, 6, 1], [1, 10, 20, 10, 1],
    [1, 15, 50, 50, 15, 1], [1, 21, 105, 175, 105, 21, 1],
]
E1_ROWS = [
    [1], [1, 0], [1, 1, 0], [1, 4, 1, 0], [1, 11, 11, 1, 0],
    [1, 26, 66, 26, 1, 0], [1, 57, 302, 302, 57, 1, 0],
]
E2_ROWS = [
    [1], [0, 1], [0, 1, 1], [0, 1, 4, 1], [0, 1, 11, 11, 1],
    [0, 1, 26, 66, 26, 1], [0, 1, 57, 302, 302, 57, 1],
]
E3_ROWS = [
    [1], [1, 1], [1, 4, 1], [1, 11, 11, 1], [1, 26, 66, 26, 1],
    [1, 57, 302, 302, 57, 1], [1, 120, 1191, 2416, 1191, 120, 1],
]
A019538_ROWS = [
    [1], [0, 1], [0, 1, 2], [0, 1, 6, 6], [0, 1, 14, 36, 24],
    [0, 1, 30, 150, 240, 120], [0, 1, 62, 540, 1560, 1800, 720],
]
A086810_ROWS = [
    [1], [0, 1], [0, 1, 2], [0, 1, 5, 5], [0, 1, 9, 21, 14],
    [0, 1, 14, 56, 84, 42], [0, 1, 20, 120, 300, 330, 132],
]
SIGNED_NARAYANA_8 = [
    [1], [1, 0], [1, -1, 0], [1, -3, 1, 0], [1, -6, 6, -1, 0],
    [1, -10, 20, -10, 1, 0], [1, -15, 50, -50, 15, -1, 0],
    [1, -21, 105, -175, 105, -21, 1, 0],
]
SIGNED_EULERIAN_7 = [
    [1], [1, 0], [1, -1, 0], [1, -4, 1, 0], [1, -11, 11, -1, 0],
    [1, -26, 66, -26, 1, 0], [1, -57, 302, -302, 57, -1, 0],
]
A090582S_ROWS = [
    [1], [1, 0], [2, -1, 0], [6, -6, 1, 0], [24, -36, 14, -1, 0],
    [120, -240, 150, -30, 1, 0], [720, -1800, 1560, -540, 62, -1, 0],
]
A130850_ROWS = [
    [1], [1, 1], [2, 3, 1], [6, 12, 7, 1], [24, 60, 50, 15, 1],
    [120, 360, 390, 180, 31, 1], [720, 2520, 3360, 2100, 602, 63, 1],
]
A060693_ROWS = [
    [1], [1, 1], [2, 3, 1], [5, 10, 6, 1], [14, 35, 30, 10, 1],
    [42, 126, 140, 70, 15, 1], [132, 462, 630, 420, 140, 21, 1],
]
GALTON_ROWS = [
    [1], [0, 1], [0, 2, 3], [0, 4, 18, 15], [0, 8, 84, 180, 105],
    [0, 16, 360, 1500, 2100, 945],
    [0, 32, 1488, 10800, 27300, 28350, 10395],
    [0, 64, 6048, 72240, 294000, 529200, 436590, 135135],
]
A211608_ROWS = [
    [1], [0, 1], [0, 1, 3], [0, 1, 9, 15], [0, 1, 21, 90, 105],
    [0, 1, 45, 375, 1050, 945], [0, 1, 93, 1350, 6825, 14175, 10395],
    [0, 1, 189, 4515, 36750, 132300, 218295, 135135],
]
GENBELL_POLYS = [
    1, [0, 1], [0, 1, 2], [0, 1, 6, 6], [0, 1, 14, 36, 24],
    [0, 1, 30, 150, 240, 120], [0, 1, 62, 540, 1560, 1800, 720],
]

SEC3_FAMILY = "(1+(r-1)*x)/((1-x)*(1+r*x))"
SEC3_G = "(1-(r+1)*x)/((1-x)*(1-r*x))"
ETUDE2_G = "(1-2*x)/(1-2*x-r*x^2)"
ETUDE3_G = "(1-3*x-(r-2)*x^2)/((1-x)*(1-2*x-2*r*x^2))"

F = Fixture

_FIXTURES = [
    # -- Narayana and Eulerian preliminaries --------------------------------
    F("narayana1-gf", "triangle", "triangle(gfrev((1-r*x)/(1-(r-1)*x)),7,ogf)",
      N1_ROWS, "A131198 Narayana triangle, reversion route"),
    F("narayana1-jfrac", "triangle",
      "triangle(jfrac([1,r+1,r+1,r+1],[r,r,r]),7,ogf)",
      N1_ROWS, "A131198 Jacobi fraction J(1,r+1,...;r,r,...)"),
    F("narayana1-sfrac", "triangle", "triangle(sfrac([1,r,1,r,1,r]),7,ogf)",
      N1_ROWS, "A131198 Stieltjes fraction S(1,1,...;r,r,...)"),
    F("narayana1-deleham", "triangle",
      "deleham([1,0,1,0,1,0,1],[0,1,0,1,0,1,0],7)",
      N1_ROWS, "A131198 two-sequence form [1,0,1,...] D [0,1,0,...]"),
    F("narayana2-gf", "triangle", "triangle(gfrev((1-x)/(1+(r-1)*x)),7,ogf)",
      N2_ROWS, "A090181 Narayana triangle, reversion route"),
    F("narayana2-jfrac", "triangle",
      "triangle(jfrac([r,r+1,r+1,r+1],[r,r,r]),7,ogf)",
      N2_ROWS, "A090181 Jacobi fraction J(r,r+1,...;r,r,...)"),
    F("narayana2-sfrac", "triangle", "triangle(sfrac([r,1,r,1,r,1]),7,ogf)",
      N2_ROWS, "A090181 Stieltjes fraction S(r,r,...;1,1,...)"),
    F("narayana2-deleham", "triangle",
      "deleham([0,1,0,1,0,1,0],[1,0,1,0,1,0,1],7)",
      N2_ROWS, "A090181 two-sequence form"),
    F("narayana3-gf", "triangle",
      "triangle(gfrev(1/(1+(r+1)*x+r*x^2)),7,ogf)",
      N3_ROWS, "A001263 symmetric Narayana triangle, reversion route"),
    F("narayana3-jfrac", "triangle",
      "triangle(jfrac([r+1,r+1,r+1,r+1],[r,r,r]),7,ogf)",
      N3_ROWS, "A001263 Jacobi fraction J(r+1,r+1,...;r,r,...)"),
    F("narayana3-deleham1", "triangle",
      "deleham1([0,1,0,1,0,1,0],[1,0,1,0,1,0,1],7)",
      N3_ROWS, "A001263 top-level two-sequence form"),
    F("narayana3-parity-source", "triangle",
      "triangle(1/(1+(r+1)*x+r*x^2),7,ogf)",
      [[1], [-1, -1], [1, 1, 1], [-1, -1, -1, -1], [1, 1, 1, 1, 1],
       [-1, -1, -1, -1, -1, -1], [1, 1, 1, 1, 1, 1, 1]],
      "alternating parity triangle whose reversion is A001263"),
    F("eulerian1-egf", "triangle",
      "triangle((1-r)*exp(x)/(exp(r*x)-r*exp(x)),7,egf)",
      E1_ROWS, "A173018 Eulerian triangle, bivariate egf"),
    F("eulerian1-jfrac", "triangle", "triangle(tinv(1,r+1,r,4),7,ogf)",
      E1_ROWS, "A173018 Jacobi fraction J(1,r+2,2r+3,...;r,4r,9r,...)"),
    F("eulerian1-sfrac", "triangle",
      "triangle(sfrac([1,r,2,2*r,3,3*r]),7,ogf)",
      E1_ROWS, "A173018 Stieltjes fraction S(1,2,3,...;r,2r,3r,...)"),
    F("eulerian1-deleham", "triangle",
      "deleham([1,0,2,0,3,0,4],[0,1,0,2,0,3,0],7)",
      E1_ROWS, "A173018 two-sequence form"),
    F("eulerian2-egf", "triangle",
      "triangle((1-r)*exp(r*x)/(exp(r*x)-r*exp(x)),7,egf)",
      E2_ROWS, "A123125 Eulerian triangle, bivariate egf"),
    F("eulerian2-partial-pipeline", "triangle",
      "triangle(0-partialP((1-r*x)/(1-(r-1)*x)),7,egf)",
      E2_ROWS, "A123125 as negated log-derivative step of the pipeline"),
    F("eulerian2-jfrac", "triangle", "triangle(tinv(r,r+1,r,4),7,ogf)",
      E2_ROWS, "A123125 Jacobi fraction J(r,2r+1,3r+2,...;r,4r,9r,...)"),
    F("eulerian2-sfrac", "triangle",
      "triangle(sfrac([r,1,2*r,2,3*r,3]),7,ogf)",
      E2_ROWS, "A123125 Stieltjes fraction S(r,2r,3r,...;1,2,3,...)"),
    F("eulerian2-deleham", "triangle",
      "deleham([0,1,0,2,0,3,0],[1,0,2,0,3,0,4],7)",
      E2_ROWS, "A123125 two-sequence form"),
    F("eulerian3-egf", "triangle",
      "triangle(exp(x*(r+1))*(r-1)^2/(exp(r*x)-r*exp(x))^2,7,egf)",
      E3_ROWS, "A008292 Eulerian triangle, bivariate egf"),
    F("eulerian3-jfrac", "triangle",
      "triangle(jfrac([r+1,2*(r+1),3*(r+1),4*(r+1)],[2*r,6*r,12*r]),7,ogf)",
      E3_ROWS, "A008292 Jacobi fraction J(r+1,2(r+1),...;2r,6r,12r,...)"),
    F("eulerian3-deleham1", "triangle",
      "deleham1([0,1,0,2,0,3,0],[1,0,2,0,3,0,4],7)",
      E3_ROWS, "A008292 top-level two-sequence form"),
    F("a046802", "triangle", "triangle(tinv(r+1,r+1,r,4),7,ogf)",
      [[1], [1, 1], [1, 3, 1], [1, 7, 7, 1], [1, 15, 33, 15, 1],
       [1, 31, 131, 131, 31, 1], [1, 63, 473, 883, 473, 63, 1]],
      "A046802 stellahedra h-polynomials, quadratic-weight partner of A001263"),
    F("a248727", "triangle",
      "matmul(triangle(tinv(r+1,r+1,r,4),7,ogf),Bmat(7))",
      [[1], [2, 1], [5, 5, 1], [16, 24, 10, 1], [65, 130, 84, 19, 1],
       [326, 815, 720, 265, 36, 1], [1957, 5871, 6605, 3425, 803, 69, 1]],
      "A248727 stellahedra f-polynomials, A046802 times binomial"),

    # -- ordered Bell pipeline ----------------------------------------------
    F("fubini-pipeline", "series", "sumudu(P(1/(1-x^2)))",
      [1, 1, 3, 13, 75, 541, 4683, 47293, 545835],
      "A000670 ordered set partitions via the pipeline"),
    F("fubini-closed-form", "series", "sumudu(1/(2-exp(x)))",
      [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261],
      "A000670 from the exponential closed form"),
    F("fubini-jfrac", "jfrac", "tojfrac(sumudu(P(1/(1-x^2))))",
      ([1, 4, 7, 10], [2, 8, 18, 32]),
      "A000670 Jacobi fraction J(1,4,7,10,...;2,8,18,32,...)", 9),
    F("fubini-sfrac", "sfrac", "tosfrac(sumudu(P(1/(1-x^2))))",
      [1, 2, 2, 4, 3, 6, 4, 8],
      "A000670 Stieltjes fraction S(1,2,2,4,3,6,...)", 9),
    F("fubini-jfrac-eval", "series", "jfrac([1,4,7,10,13],[2,8,18,32])",
      [1, 1, 3, 13, 75, 541, 4683, 47293, 545835],
      "A000670 evaluated back from its Jacobi fraction"),
    F("fubini-contract", "jfrac", "contract(sfrac([1,2,2,4,3,6,4,8,5]))",
      ([1, 4, 7, 10], [2, 8, 18, 32]),
      "even contraction of the A000670 Stieltjes fraction", 9, prefix=True),
    F("fibonacci-invert", "series", "invert(1/(1-x^2),1)",
      [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89],
      "A000045 Fibonacci via the denominator-shift transform"),
    F("fibonacci-signed", "series", "invert(1/(1-x^2),0-1)",
      [1, -1, 2, -3, 5, -8, 13, -21, 34, -55, 89],
      "signed Fibonacci, opposite denominator shift"),
    F("nonelementary-pipeline", "series", "sumudu(P(1/(1-2*x^2)))",
      [1, 2, 12, 112, 1440, 23648, 473088, 11164288, 303648000, 9352781312],
      "pipeline image of 1/(1-2x^2); no elementary closed form"),

    # -- the mixed-parity example -------------------------------------------
    F("mixed-parity-pipeline", "series", "sumudu(P((1+x^2)/(1-x^2)))",
      [1, 2, 12, 110, 1380, 22022, 426972, 9747950, 256176660],
      "pipeline image of the ogf of 1,0,2,0,2,..."),
    F("sech-shift-seq", "series", "sumudu(2/(1+exp(2*x)))",
      [1, -1, 0, 2, 0, -16, 0, 272, 0, -7936],
      "A000182-signed family: egf exp(-x)*sech(x)"),
    F("sech-preimage-chain", "series",
      "sumudu(exp(integ(0-diff(diff(revert(integ(2/(1+exp(2*x)))))))))",
      [1, -1, -2, -5, -13, -12, 379, 6907, 99112, 1378941],
      "exp of the integrated negated second derivative of the reversion"),
    F("shifted-fubini-jfrac", "jfrac",
      "tojfrac(sumudu(exp(x)/(2-exp(x))^2))",
      ([3, 6, 9, 12], [4, 12, 24, 40]),
      "once-shifted A000670, J(3,6,9,...;4,12,24,...)", 9),

    # -- the parameterized family of Etude I ---------------------------------
    F("sec3-family-series", "series", SEC3_FAMILY,
      [1, 0, [0, 1], [0, 1, -1], [0, 1, -1, 1], [0, 1, -1, 1, -1],
       [0, 1, -1, 1, -1, 1]],
      "partial sums of 1,-1,r,-r^2,...: 1,0,r,r(1-r),r(r^2-r+1),..."),
    F("sec3-family-triangle", "triangle",
      f"triangle({SEC3_FAMILY},8,ogf)",
      [[1], [0, 0], [0, 1, 0], [0, 1, -1, 0], [0, 1, -1, 1, 0],
       [0, 1, -1, 1, -1, 0], [0, 1, -1, 1, -1, 1, 0],
       [0, 1, -1, 1, -1, 1, -1, 0]],
      "coefficient array of the parameterized family"),
    F("sec3-bimage-triangle", "triangle",
      "triangle((1+r*x)/((1-x)*(1+(r+1)*x)),8,ogf)",
      [[1], [0, 0], [1, 1, 0], [0, -1, -1, 0], [1, 2, 2, 1, 0],
       [0, -2, -4, -3, -1, 0], [1, 3, 6, 7, 4, 1, 0],
       [0, -3, -9, -13, -11, -5, -1, 0]],
      "binomial right-action shifts the parameter by one"),
    F("sec3-bimage-matmul", "triangle",
      f"matmul(triangle({SEC3_FAMILY},8,ogf),Bmat(8))",
      [[1], [0, 0], [1, 1, 0], [0, -1, -1, 0], [1, 2, 2, 1, 0],
       [0, -2, -4, -3, -1, 0], [1, 3, 6, 7, 4, 1, 0],
       [0, -3, -9, -13, -11, -5, -1, 0]],
      "same array produced by an explicit binomial product"),
    F("sec3-ibinom-powers", "series",
      "ibinom((1+(r-1)*x)/((1-x)*(1+r*x)))",
      [1, -1, [1, 1], [-1, -2, -1], [1, 3, 3, 1], [-1, -4, -6, -4, -1],
       [1, 5, 10, 10, 5, 1], [-1, -6, -15, -20, -15, -6, -1]],
      "inverse binomial transform: signed powers of r+1"),
    F("sec3-powers-triangle", "triangle",
      "triangle(ibinom((1+(r-1)*x)/((1-x)*(1+r*x))),8,ogf)",
      [[1], [-1, 0], [1, 1, 0], [-1, -2, -1, 0], [1, 3, 3, 1, 0],
       [-1, -4, -6, -4, -1, 0], [1, 5, 10, 10, 5, 1, 0],
       [-1, -6, -15, -20, -15, -6, -1, 0]],
      "coefficient array of the signed powers of r+1"),
    F("signed-narayana-8", "triangle",
      "triangle(gfrev((1+r*x)/(1+(r+1)*x)),8,ogf)",
      SIGNED_NARAYANA_8, "signed A001263 variant via reversion"),
    F("signed-narayana-jfrac", "triangle",
      "triangle(jfrac([1,1-r,1-r,1-r,1-r],[0-r,0-r,0-r,0-r]),8,ogf)",
      SIGNED_NARAYANA_8, "signed A001263, J(1,1-r,...;-r,-r,...)"),
    F("genbell-pipeline-polys", "series", f"sumudu(P({SEC3_FAMILY}))",
      GENBELL_POLYS,
      "generalized ordered Bell polynomials 1,r,r(2r+1),..., A094416 rows"),
    F("genbell-closed-form", "series", "sumudu(1/(1+r*(1-exp(x))))",
      GENBELL_POLYS + [[0, 1, 126, 1806, 8400, 16800, 15120, 5040]],
      "same polynomials from the exponential closed form"),
    F("genbell-pipeline-vs-closed", "series",
      f"P({SEC3_FAMILY})-1/(1+r*(1-exp(x)))",
      [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      "pipeline image equals the closed form, as a vanishing difference"),
    F("genbell-r1", "series", f"sumudu(P({SEC3_FAMILY}))",
      [1, 1, 3, 13, 75, 541, 4683], "A000670 specialization", set_r="1"),
    F("genbell-r2", "series", f"sumudu(P({SEC3_FAMILY}))",
      [1, 2, 10, 74, 730, 9002, 133210], "A004123 specialization", set_r="2"),
    F("genbell-jfrac", "jfrac", f"tojfrac(sumudu(P({SEC3_FAMILY})))",
      ([[0, 1], [1, 3], [2, 5], [3, 7]],
       [[0, 1, 1], [0, 4, 4], [0, 9, 9], [0, 16, 16]]),
      "J(r,3r+1,5r+2,...;r(r+1),4r(r+1),...) for the Bell polynomials", 9),
    F("genbell-sfrac", "sfrac", f"tosfrac(sumudu(P({SEC3_FAMILY})))",
      [[0, 1], [1, 1], [0, 2], [2, 2], [0, 3], [3, 3], [0, 4], [4, 4]],
      "S(r,r+1,2r,2(r+1),...) for the Bell polynomials", 9),
    F("genbell-contract", "jfrac",
      "contract(sfrac([r,r+1,2*r,2*(r+1),3*r,3*(r+1)]))",
      ([[0, 1], [1, 3], [2, 5]], [[0, 1, 1], [0, 4, 4]]),
      "contraction identity for the Bell-polynomial fraction", 9, prefix=True),
    F("a019538", "triangle", "triangle(1/(1+r*(1-exp(x))),7,egf)",
      A019538_ROWS, "A019538 set compositions, k! S(n,k)"),
    F("a019538-8rows", "triangle", "triangle(1/(1-r*(exp(x)-1)),8,egf)",
      A019538_ROWS + [[0, 1, 126, 1806, 8400, 16800, 15120, 5040]],
      "A019538, eight rows"),
    F("a019538-pipeline", "triangle", f"triangle(P({SEC3_FAMILY}),7,egf)",
      A019538_ROWS, "A019538 as the pipeline image of the Etude I family"),
    F("a019538-jfrac", "triangle",
      "triangle(tinv(r,2*r+1,r*(r+1),4),7,ogf)",
      A019538_ROWS, "A019538 from its quadratic-weight Jacobi fraction"),
    F("a019538-deleham", "triangle",
      "deleham([0,1,0,2,0,3],[1,1,2,2,3,3],7)",
      A019538_ROWS, "A019538 two-sequence form [0,1,0,2,...] D [1,1,2,2,...]"),
    F("a086810-deleham", "triangle",
      "deleham([0,1,0,1,0,1],[1,1,1,1,1,1],7)",
      A086810_ROWS, "A086810 dissections of a polygon, two-sequence form"),
    F("a086810-pairing", "triangle",
      "triangle(tfwd(tinv(r,2*r+1,r*(r+1),4)),7,ogf)",
      A086810_ROWS, "A086810 as the constant-tail partner of A019538"),
    F("prodmat-ordered-bell", "matrix",
      "prodmat(1/(1+r*(1-exp(x))),(exp(x)-1)/(1+r*(1-exp(x))),6)",
      [[[0, 1], 1, 0, 0, 0, 0],
       [[0, 1, 1], [1, 3], 1, 0, 0, 0],
       [0, [0, 4, 4], [2, 5], 1, 0, 0],
       [0, 0, [0, 9, 9], [3, 7], 1, 0],
       [0, 0, 0, [0, 16, 16], [4, 9], 1],
       [0, 0, 0, 0, [0, 25, 25], [5, 11]]],
      "tridiagonal production matrix of the ordered-Bell moment array"),

    # -- signed chains -------------------------------------------------------
    # the printed row table for this reversion disagrees with the same
    # page's closed form and Jacobi fraction; those two agree with each
    # other and with the reversion, so their common values are used here
    F("sec3-bimage-reversion", "triangle",
      "triangle(gfrev((1+r*x)/((1-x)*(1+(r+1)*x))),8,ogf)",
      [[1], [0, 0], [-1, -1, 0], [0, 1, 1, 0], [2, 4, 1, -1, 0],
       [0, -5, -10, -4, 1, 0], [-5, -15, -6, 13, 8, -1, 0],
       [0, 21, 63, 49, -7, -13, 1, 0]],
      "reversion of the shifted coefficient array, values from its stated "
      "J-fraction and Catalan closed form"),
    F("sec3-bimage-reversion-jfrac", "triangle",
      "triangle(jfrac([0,0-r,0-r,0-r],[0-(r+1),0-(r+1),0-(r+1)]),8,ogf)",
      [[1], [0, 0], [-1, -1, 0], [0, 1, 1, 0], [2, 4, 1, -1, 0],
       [0, -5, -10, -4, 1, 0], [-5, -15, -6, 13, 8, -1, 0],
       [0, 21, 63, 49, -7, -13, 1, 0]],
      "same array from J(0,-r,-r,...;-(r+1),-(r+1),...)"),
    F("sec3-partner-jfrac", "triangle",
      "triangle(tinv(0,0-r,0-(r+1),4),8,ogf)",
      [[1], [0, 0], [-1, -1, 0], [0, 1, 1, 0], [5, 10, 4, -1, 0],
       [0, -18, -36, -17, 1, 0], [-61, -183, -136, 33, 46, -1, 0],
       [0, 479, 1437, 1329, 263, -107, 1, 0]],
      "quadratic-weight partner J(0,-r,-2r,...;-(r+1),-4(r+1),...)"),
    F("sec3-partner-egf", "triangle",
      "triangle((r+2)*exp((r+1)*x)/(1+(r+1)*exp((r+2)*x)),8,egf)",
      [[1], [0, 0], [-1, -1, 0], [0, 1, 1, 0], [5, 10, 4, -1, 0],
       [0, -18, -36, -17, 1, 0], [-61, -183, -136, 33, 46, -1, 0],
       [0, 479, 1437, 1329, 263, -107, 1, 0]],
      "same array from its exponential closed form"),
    F("a271697-signed", "triangle",
      "triangle((r+1)*exp(r*x)/(1+r*exp((r+1)*x)),8,egf)",
      [[1], [0, 0], [0, -1, 0], [0, -1, 1, 0], [0, -1, 7, -1, 0],
       [0, -1, 21, -21, 1, 0], [0, -1, 51, -161, 51, -1, 0],
       [0, -1, 113, -813, 813, -113, 1, 0]],
      "signed A271697 from its exponential form"),
    F("a271697-signed-jfrac", "triangle",
      "triangle(tinv(0,1-r,0-r,4),8,ogf)",
      [[1], [0, 0], [0, -1, 0], [0, -1, 1, 0], [0, -1, 7, -1, 0],
       [0, -1, 21, -21, 1, 0], [0, -1, 51, -161, 51, -1, 0],
       [0, -1, 113, -813, 813, -113, 1, 0]],
      "signed A271697, J(0,-(r-1),-2(r-1),...;-r,-4r,...)"),
    F("signed-eulerian-8", "triangle",
      "matmul(Bmat(8),triangle((r+1)*exp(r*x)/(1+r*exp((r+1)*x)),8,egf))",
      [[1], [1, 0], [1, -1, 0], [1, -4, 1, 0], [1, -11, 11, -1, 0],
       [1, -26, 66, -26, 1, 0], [1, -57, 302, -302, 57, -1, 0],
       [1, -120, 1191, -2416, 1191, -120, 1, 0]],
      "signed A008292 variant by a left binomial product"),
    F("signed-eulerian-egf", "triangle",
      "triangle((1+r)/(exp(0-x*(r+1))+r),7,egf)",
      SIGNED_EULERIAN_7, "signed A008292 variant, exponential form"),
    F("signed-eulerian-jfrac", "triangle",
      "triangle(tinv(1,1-r,0-r,4),7,ogf)",
      SIGNED_EULERIAN_7, "signed A008292 variant, J(1,2-r,3-2r,...;-r,-4r,...)"),
    F("variant-eulerian-partial", "triangle",
      "triangle(partialP((1+r*x)/(1+(r+1)*x)),8,egf)",
      [[-1], [0, 1], [0, 1, -1], [0, 1, -4, 1], [0, 1, -11, 11, -1],
       [0, 1, -26, 66, -26, 1], [0, 1, -57, 302, -302, 57, -1],
       [0, 1, -120, 1191, -2416, 1191, -120, 1]],
      "log-derivative of the egf of the signed r+1 powers"),
    F("a019538-return", "triangle",
      "triangle(diff(revert(integ(0-partialP((1+r*x)/(1+(r+1)*x))))),8,egf)",
      A019538_ROWS + [[0, 1, 126, 1806, 8400, 16800, 15120, 5040]],
      "finishing the pipeline steps returns A019538"),
    F("a130850-signed", "triangle",
      "triangle(0-partialP((1+(r-1)*x)/(1+r*x)),7,egf)",
      [[1], [1, -1], [2, -3, 1], [6, -12, 7, -1], [24, -60, 50, -15, 1],
       [120, -360, 390, -180, 31, -1], [720, -2520, 3360, -2100, 602, -63, 1]],
      "signed A130850, (n-k)! (-1)^k S(n+1,n-k+1)"),
    F("a130850-signed-deleham", "triangle",
      "deleham([1,1,2,2,3,3],[0-1,0,0-2,0,0-3,0],7)",
      [[1], [1, -1], [2, -3, 1], [6, -12, 7, -1], [24, -60, 50, -15, 1],
       [120, -360, 390, -180, 31, -1], [720, -2520, 3360, -2100, 602, -63, 1]],
      "signed A130850, two-sequence form"),
    F("a028246-signed", "triangle",
      "triangle(1/(r-(r-1)*exp(x)),7,egf)",
      [[1], [-1, 1], [1, -3, 2], [-1, 7, -12, 6], [1, -15, 50, -60, 24],
       [-1, 31, -180, 390, -360, 120], [1, -63, 602, -2100, 3360, -2520, 720]],
      "signed A028246 from its exponential form"),
    F("a028246-signed-manual-pipeline", "triangle",
      "triangle(diff(revert(integ(0-logd(isumudu((1+(r-1)*x)/(1+r*x)))))),7,egf)",
      [[1], [-1, 1], [1, -3, 2], [-1, 7, -12, 6], [1, -15, 50, -60, 24],
       [-1, 31, -180, 390, -360, 120], [1, -63, 602, -2100, 3360, -2520, 720]],
      "signed A028246 by composing the pipeline steps on a 1,-1,... input"),
    F("a028246-to-a019538", "triangle",
      "matmul(triangle(1/(r-(r-1)*exp(x)),7,egf),Bmat(7))",
      A019538_ROWS, "right binomial action carries the signed A028246 to A019538"),
    F("parity-diagonal-triangle", "triangle",
      "triangle((1+(r-1)*x)/(1+r*x),7,ogf)",
      [[1], [-1, 0], [0, 1, 0], [0, 0, -1, 0], [0, 0, 0, 1, 0],
       [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, 1, 0]],
      "coefficient array of 1,-1,r,-r^2,r^3,..."),
    F("a126216-signed", "triangle",
      "triangle(gfrev((1+(r-1)*x)/(1+r*x)),6,ogf)",
      [[1], [1, 0], [2, -1, 0], [5, -5, 1, 0], [14, -21, 9, -1, 0],
       [42, -84, 56, -14, 1, 0]],
      "signed A126216 via reversion"),
    F("a090582-signed-jfrac", "triangle",
      "triangle(tinv(1,2-r,1-r,4),7,ogf)",
      A090582S_ROWS, "signed A090582, J(1,3-r,5-2r,...;1-r,4(1-r),...)"),
    F("a090582-signed-egf", "triangle",
      "triangle(r/(exp(0-r*x)+r-1),7,egf)",
      A090582S_ROWS, "signed A090582, exponential form"),
    F("a090582-signed-deleham", "triangle",
      "deleham([1,1,2,2,3,3],[0,0-1,0,0-2,0,0-3],7)",
      A090582S_ROWS, "signed A090582, two-sequence form"),
    F("parity-shifted-triangle", "triangle",
      "triangle((1+r*x)/(1+(r+1)*x),7,ogf)",
      [[1], [-1, 0], [1, 1, 0], [-1, -2, -1, 0], [1, 3, 3, 1, 0],
       [-1, -4, -6, -4, -1, 0], [1, 5, 10, 10, 5, 1, 0]],
      "coefficient array of 1,-1,r+1,-(r+1)^2,..."),
    F("parity-shift-matmul", "triangle",
      "matmul(triangle((1+(r-1)*x)/(1+r*x),7,ogf),Bmat(7))",
      [[1], [-1, 0], [1, 1, 0], [-1, -2, -1, 0], [1, 3, 3, 1, 0],
       [-1, -4, -6, -4, -1, 0], [1, 5, 10, 10, 5, 1, 0]],
      "binomial action shifts the parameter of the parity array"),
    F("a126216-unsigned-7", "triangle",
      "triangle(gfrev((1-(r+1)*x)/(1-r*x)),7,ogf)",
      [[1], [1, 0], [2, 1, 0], [5, 5, 1, 0], [14, 21, 9, 1, 0],
       [42, 84, 56, 14, 1, 0], [132, 330, 300, 120, 20, 1, 0]],
      "A126216 via reversion of the mirror-parameter family"),
    F("a126216-signed-times-b", "triangle",
      "matmul(triangle(gfrev((1+(r-1)*x)/(1+r*x)),7,ogf),Bmat(7))",
      SIGNED_NARAYANA_8[:7],
      "signed A126216 times binomial equals the signed Narayana variant"),
    F("a090582s-times-b", "triangle",
      "matmul(triangle(r/(exp(0-r*x)+r-1),7,egf),Bmat(7))",
      SIGNED_EULERIAN_7,
      "signed A090582 times binomial equals the signed Eulerian variant"),
    F("e1-from-a090582-reversal", "triangle",
      "matmul(reverse(triangle(1/(1+r*(1-exp(x))),7,egf)),inv(Bmat(7)))",
      E1_ROWS, "reversal of A019538 times inverse binomial gives A173018"),
    F("n1-from-a086810-reversal", "triangle",
      "matmul(reverse(deleham([0,1,0,1,0,1],[1,1,1,1,1,1],7)),inv(Bmat(7)))",
      N1_ROWS, "reversal of A086810 times inverse binomial gives A131198"),

    # -- the Fine-number example ---------------------------------------------
    F("fine-source-triangle", "triangle", f"triangle({SEC3_G},7,ogf)",
      [[1], [0, 0], [0, -1, 0], [0, -1, -1, 0], [0, -1, -1, -1, 0],
       [0, -1, -1, -1, -1, 0], [0, -1, -1, -1, -1, -1, 0]],
      "coefficient array of (1-(r+1)x)/((1-x)(1-rx))"),
    F("a100754-variant", "triangle", f"triangle(gfrev({SEC3_G}),7,ogf)",
      [[1], [0, 0], [0, 1, 0], [0, 1, 1, 0], [0, 1, 4, 1, 0],
       [0, 1, 8, 8, 1, 0], [0, 1, 13, 29, 13, 1, 0]],
      "A100754 variant; row sums are the Fine numbers A000957"),
    F("a100754-jfrac", "triangle",
      "triangle(jfrac([0,r+1,r+1,r+1],[r,r,r]),7,ogf)",
      [[1], [0, 0], [0, 1, 0], [0, 1, 1, 0], [0, 1, 4, 1, 0],
       [0, 1, 8, 8, 1, 0], [0, 1, 13, 29, 13, 1, 0]],
      "A100754 variant, J(0,r+1,r+1,...;r,r,r,...)"),
    F("fine-row-sums", "series", f"gfrev({SEC3_G})",
      [1, 0, 1, 2, 6, 18, 57],
      "A000957 Fine numbers as row sums (r=1)", set_r="1"),
    F("e2-from-fine-g", "triangle", f"triangle(1-partialP({SEC3_G}),7,egf)",
      E2_ROWS, "one minus the log-derivative step lands on A123125"),
    F("a019538-signed-pipeline", "triangle", f"triangle(P({SEC3_G}),7,egf)",
      [[1], [0, -1], [0, -1, 2], [0, -1, 6, -6], [0, -1, 14, -36, 24],
       [0, -1, 30, -150, 240, -120], [0, -1, 62, -540, 1560, -1800, 720]],
      "pipeline image 1/(1+r(exp(x)-1)): signed A019538"),
    F("a086810-signed-pairing", "triangle",
      f"triangle(tfwd(tojfrac(sumudu(P({SEC3_G})))),7,ogf)",
      [[1], [0, -1], [0, -1, 2], [0, -1, 5, -5], [0, -1, 9, -21, 14],
       [0, -1, 14, -56, 84, -42], [0, -1, 20, -120, 300, -330, 132]],
      "constant-tail partner of the signed A019538 fraction", 9),

    # -- the mirror family example -------------------------------------------
    F("mirror-family-reversion", "triangle",
      f"triangle(gfrev({SEC3_FAMILY}),7,ogf)",
      [[1], [0, 0], [0, -1, 0], [0, -1, 1, 0], [0, -1, 4, -1, 0],
       [0, -1, 8, -8, 1, 0], [0, -1, 13, -29, 13, -1, 0]],
      "reversion of the Etude I family's coefficient array"),
    F("a019538-shift-pipeline", "triangle",
      "triangle(P((1+r*x)/(1+r*x-(r+1)*x^2)),7,egf)",
      [[1], [1, 1], [3, 5, 2], [13, 31, 24, 6], [75, 233, 266, 132, 24],
       [541, 2071, 3120, 2310, 840, 120],
       [4683, 21305, 39842, 39180, 21360, 6120, 720]],
      "pipeline image 1/(1+(r+1)(1-exp(x)))"),
    F("a019538-shift-matmul", "triangle",
      "matmul(triangle(1/(1+r*(1-exp(x))),7,egf),Bmat(7))",
      [[1], [1, 1], [3, 5, 2], [13, 31, 24, 6], [75, 233, 266, 132, 24],
       [541, 2071, 3120, 2310, 840, 120],
       [4683, 21305, 39842, 39180, 21360, 6120, 720]],
      "A019538 times binomial: the parameter shifts by one"),
    F("a151575", "series", "(1+x)/(1+x-2*x^2)",
      [1, 0, 2, -2, 6, -10, 22, -42, 86, -170, 342],
      "A151575 signed closed-walk counts"),
    F("a151575-to-a004123", "series", "sumudu(P((1+x)/(1+x-2*x^2)))",
      [1, 2, 10, 74, 730, 9002, 133210],
      "pipeline carries A151575 to A004123"),
    F("associahedron-f-vectors", "triangle",
      "triangle(gfrev((1-(r+1)*x)/(1-x)),7,ogf)",
      A086810_ROWS, "A086810 rows as associahedron face counts"),
    F("a028246-extended", "triangle",
      "triangle(1-integ(logd(1+r*(1-exp(x)))),7,egf)",
      [[1], [0, 1], [0, 1, 1], [0, 1, 3, 2], [0, 1, 7, 12, 6],
       [0, 1, 15, 50, 60, 24], [0, 1, 31, 180, 390, 360, 120]],
      "extended A028246, barycentric subdivision face counts"),
    F("a028246-extended-reversion", "triangle",
      "triangle(diff(revert(integ(1-integ(logd(1+r*(1-exp(x))))))),8,egf)",
      [[1], [0, -1], [0, -1, 2], [0, -1, 7, -7], [0, -1, 18, -52, 34],
       [0, -1, 41, -253, 437, -213], [0, -1, 88, -1020, 3453, -4203, 1630],
       [0, -1, 183, -3707, 21670, -49044, 45783, -14747]],
      "reversion of the extended A028246; diagonal is signed A074059"),
    F("a130850-parent", "triangle",
      "triangle(1+log(r/(r+1-exp(r*x))),7,egf)",
      [[1], [1, 0], [1, 1, 0], [2, 3, 1, 0], [6, 12, 7, 1, 0],
       [24, 60, 50, 15, 1, 0], [120, 360, 390, 180, 31, 1, 0]],
      "array whose beheading is A130850"),
    F("a130850", "triangle", "deleham([1,1,2,2,3,3],[1,0,2,0,3,0],7)",
      A130850_ROWS, "A130850, two-sequence form [1,1,2,2,...] D [1,0,2,0,...]"),
    F("a130850-egf", "triangle",
      "triangle(r/((r+1)*exp(0-r*x)-1),7,egf)",
      A130850_ROWS, "A130850 from its exponential form"),
    F("a130850-jfrac", "triangle",
      "triangle(tinv(r+1,r+2,r+1,4),7,ogf)",
      A130850_ROWS, "A130850, J(r+1,2r+3,3r+5,...;r+1,4(r+1),...)"),
    F("a060693-pairing", "triangle",
      "triangle(tfwd(tinv(r+1,r+2,r+1,4)),7,ogf)",
      A060693_ROWS, "A060693 as the constant-tail partner of A130850"),
    F("a060693-deleham", "triangle",
      "deleham([1,1,1,1,1,1],[1,0,1,0,1,0],7)",
      A060693_ROWS, "A060693 Schroeder-path peaks, two-sequence form"),
    F("a060693-n2b", "triangle",
      "matmul(triangle(gfrev((1-x)/(1+(r-1)*x)),7,ogf),Bmat(7))",
      A060693_ROWS, "A060693 equals the Narayana triangle times binomial"),

    # -- Etude II --------------------------------------------------------------
    F("etude2-series", "series", ETUDE2_G,
      [1, 0, [0, 1], [0, 2], [0, 4, 1], [0, 8, 4], [0, 16, 12, 1]],
      "central-path family 1,0,r,2r,r^2+4r,..."),
    F("etude2-riordan-apply", "series",
      "rapply(1,x^2/(1-2*x),1/(1-r*x))",
      [1, 0, [0, 1], [0, 2], [0, 4, 1], [0, 8, 4], [0, 16, 12, 1]],
      "same family as an ordinary Riordan action on 1/(1-rx)"),
    F("etude2-triangle", "triangle", f"triangle({ETUDE2_G},7,ogf)",
      [[1], [0, 0], [0, 1, 0], [0, 2, 0, 0], [0, 4, 1, 0, 0],
       [0, 8, 4, 0, 0, 0], [0, 16, 12, 1, 0, 0, 0]],
      "coefficient array of the central-path family"),
    F("etude2-r0", "series", ETUDE2_G,
      [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "degenerate r=0 case", set_r="0"),
    F("etude2-r1", "series", ETUDE2_G,
      [1, 0, 1, 2, 5, 12, 29, 70, 169, 408, 985],
      "half-companion Pell variant at r=1", set_r="1"),
    F("etude2-r2", "series", ETUDE2_G,
      [1, 0, 2, 4, 12, 32, 88, 240, 656, 1792, 4896],
      "r=2 specialization", set_r="2"),
    F("etude2-r3", "series", ETUDE2_G,
      [1, 0, 3, 6, 21, 60, 183, 546, 1641, 4920, 14763],
      "A054878 closed walks on a tetrahedron at r=3", set_r="3"),
    F("etude2-ibinom", "series", f"ibinom({ETUDE2_G})",
      [1, -1, [1, 1], [-1, -1], [1, 2, 1], [-1, -2, -1], [1, 3, 3, 1],
       [-1, -3, -3, -1], [1, 4, 6, 4, 1], [-1, -4, -6, -4, -1],
       [1, 5, 10, 10, 5, 1]],
      "inverse binomial transform: alternating powers of r+1"),
    F("etude2-ibinom-vs-ratfun", "series",
      f"ibinom({ETUDE2_G})-(1-x)/(1-(r+1)*x^2)",
      [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      "the inverse binomial transform has the stated rational form"),
    F("etude2-invert", "series", f"invert({ETUDE2_G},1)",
      [1, 1, [1, 1], [1, 4], [1, 11, 1], [1, 26, 7], [1, 57, 30, 1],
       [1, 120, 102, 10]],
      "denominator-shift transform of the central-path family"),
    F("etude2-invert-r1", "series", f"invert({ETUDE2_G},1)",
      [1, 1, 2, 5, 13, 34, 89, 233, 610, 1597, 4181],
      "A001519 bisected Fibonacci at r=1", set_r="1"),
    F("etude2-invert-r2", "series", f"invert({ETUDE2_G},1)",
      [1, 1, 3, 9, 27, 81, 243, 729, 2187, 6561, 19683],
      "A133494 powers of three at r=2", set_r="2"),
    F("etude2-invert-r3", "series", f"invert({ETUDE2_G},1)",
      [1, 1, 4, 13, 43, 142, 469, 1549, 5116, 16897, 55807],
      "A003688 at r=3", set_r="3"),
    F("etude2-reversion", "triangle", f"triangle(gfrev({ETUDE2_G}),7,ogf)",
      [[1], [0, 0], [0, -1, 0], [0, -2, 0, 0], [0, -4, 2, 0, 0],
       [0, -8, 10, 0, 0, 0], [0, -16, 36, -5, 0, 0, 0]],
      "reversion of the central-path family"),
    F("etude2-unstretched-sfrac", "triangle",
      "triangle(sfrac([0-r,2-r,0-r,2-r,0-r,2-r]),7,ogf)",
      [[1], [0, -1], [0, -2, 2], [0, -4, 10, -5], [0, -8, 36, -42, 14],
       [0, -16, 112, -224, 168, -42], [0, -32, 320, -960, 1200, -660, 132]],
      "signed scaled A086810, S(-r,-r,...;2-r,2-r,...)"),
    F("etude2-unstretched-jfrac", "triangle",
      "triangle(jfrac([0-r,2*(1-r),2*(1-r),2*(1-r)],"
      "[r*(r-2),r*(r-2),r*(r-2)]),7,ogf)",
      [[1], [0, -1], [0, -2, 2], [0, -4, 10, -5], [0, -8, 36, -42, 14],
       [0, -16, 112, -224, 168, -42], [0, -32, 320, -960, 1200, -660, 132]],
      "same array, J(-r,2(1-r),...;r(r-2),...)"),
    F("galton", "triangle",
      "triangle(powq(1+r*(1-exp(2*x)),0-1/2),8,egf)",
      GALTON_ROWS, "A211402 Galton triangle, (2k-1)!! 2^(n-k) S(n,k)"),
    F("galton-pipeline", "triangle", f"triangle(P({ETUDE2_G}),8,egf)",
      GALTON_ROWS, "A211402 as the pipeline image of the central-path family"),
    F("galton-sfrac", "triangle",
      "triangle(sfrac([r,2*(r+1),3*r,4*(r+1),5*r,6*(r+1)]),7,ogf)",
      GALTON_ROWS[:7], "A211402, S(r,3r,5r,...;2(r+1),4(r+1),...)"),
    F("galton-jfrac", "triangle",
      "triangle(jfrac([r,5*r+2,9*r+4,13*r+6],"
      "[2*r*(r+1),12*r*(r+1),30*r*(r+1)]),7,ogf)",
      GALTON_ROWS[:7], "A211402, J(r,5r+2,9r+4,...;2r(r+1),12r(r+1),...)"),
    F("galton-deleham", "triangle",
      "deleham([0,2,0,4,0,6,0],[1,2,3,4,5,6,7],8)",
      GALTON_ROWS, "A211402, two-sequence form [0,2,0,4,...] D [1,2,3,...]"),
    F("galton-reversion", "triangle",
      "triangle(diff(revert(integ(powq(1+r*(1-exp(2*x)),0-1/2)))),7,egf)",
      [[1], [0, -1], [0, -2, 0], [0, -4, 2, 0], [0, -8, 16, 0, 0],
       [0, -16, 88, -16, 0, 0], [0, -32, 416, -272, 0, 0, 0]],
      "reversion of the Galton triangle"),
    F("a075497", "triangle", "eriordan(1,(exp(2*x)-1)/2,6)",
      [[1], [0, 1], [0, 2, 1], [0, 4, 6, 1], [0, 8, 28, 12, 1],
       [0, 16, 120, 100, 20, 1]],
      "A075497 scaled Stirling numbers 2^(n-k) S(n,k)"),
    F("a075497-deleham", "triangle",
      "deleham([0,2,0,4,0,6],[1,0,1,0,1,0],6)",
      [[1], [0, 1], [0, 2, 1], [0, 4, 6, 1], [0, 8, 28, 12, 1],
       [0, 16, 120, 100, 20, 1]],
      "A075497, two-sequence form [0,2,0,4,...] D [1,0,1,0,...]"),
    F("prodmat-galton", "matrix",
      "prodmat(powq(1+r*(1-exp(2*x)),0-1/2),"
      "(exp(2*x)-1)/(2*(1+r*(1-exp(2*x)))),6)",
      [[[0, 1], 1, 0, 0, 0, 0],
       [[0, 2, 2], [2, 5], 1, 0, 0, 0],
       [0, [0, 12, 12], [4, 9], 1, 0, 0],
       [0, 0, [0, 30, 30], [6, 13], 1, 0],
       [0, 0, 0, [0, 56, 56], [8, 17], 1],
       [0, 0, 0, 0, [0, 90, 90], [10, 21]]],
      "tridiagonal production matrix of the Galton moment array"),

    # -- Etude III --------------------------------------------------------------
    F("etude3-series", "series", ETUDE3_G,
      [1, 0, [0, 1], [0, 1], [0, 1, 2], [0, 1, 6], [0, 1, 14, 4],
       [0, 1, 30, 20]],
      "descent-polytope family 1,0,r,r,r(2r+1),r(6r+1),..."),
    F("etude3-r1", "series", ETUDE3_G,
      [1, 0, 1, 1, 3, 7, 19, 51, 139, 379, 1035],
      "A052948-related head at r=1", set_r="1"),
    F("etude3-ibinom", "series", f"ibinom({ETUDE3_G})",
      [1, -1, [1, 1], [-1, -2], [1, 3, 2], [-1, -4, -4], [1, 5, 8, 4],
       [-1, -6, -12, -8], [1, 7, 18, 20, 8]],
      "inverse binomial transform: mixed powers of r+1 and 2r+1"),
    F("etude3-ibinom-r1", "series", f"ibinom({ETUDE3_G})",
      [1, -1, 2, -3, 6, -9, 18, -27, 54, -81, 162],
      "signed A038754 at r=1", set_r="1"),
    F("p5-walk-image", "series",
      "matvec(matrix([[1,0,0,0,0,0,0,0],[1,1,0,0,0,0,0,0],"
      "[1,0,1,0,0,0,0,0],[1,0,1,1,0,0,0,0],[1,0,1,0,1,0,0,0],"
      "[1,0,1,0,1,1,0,0],[1,0,1,0,1,0,1,0],[1,0,1,0,1,0,1,1]]),"
      "[1,0-1,2,0-3,6,0-9,18,0-27])",
      [1, 0, 3, 0, 9, 0, 27, 0],
      "path-graph 0/1 matrix image of the signed A038754 head"),
    F("a211608", "triangle",
      "triangle(powq(1+2*r*(1-exp(x)),0-1/2),8,egf)",
      A211608_ROWS, "A211608, Galton entries divided by 2^(n-k)"),
    F("a211608-pipeline", "triangle", f"triangle(P({ETUDE3_G}),8,egf)",
      A211608_ROWS, "A211608 as the pipeline image of the descent family"),
    F("a211608-sfrac", "triangle",
      "triangle(sfrac([r,2*r+1,3*r,2*(2*r+1),5*r,3*(2*r+1),7*r]),8,ogf)",
      A211608_ROWS, "A211608, S(r,3r,5r,...;2r+1,2(2r+1),...)"),
    F("a211608-jfrac", "triangle",
      "triangle(jfrac([r,5*r+1,9*r+2,13*r+3],"
      "[r*(2*r+1),6*r*(2*r+1),15*r*(2*r+1)]),8,ogf)",
      A211608_ROWS, "A211608, J(r,5r+1,9r+2,...;r(2r+1),6r(2r+1),...)"),
    F("a211608-deleham", "triangle",
      "deleham([0,1,0,2,0,3,0],[1,2,3,4,5,6,7],8)",
      A211608_ROWS, "A211608, two-sequence form [0,1,0,2,...] D [1,2,3,...]"),
    F("andre-signed", "triangle",
      "triangle(diff(revert(integ(powq(1+2*r*(1-exp(0-x)),0-1/2)))),9,egf)",
      [[1], [0, 1], [0, -1, 0], [0, 1, -1, 0], [0, -1, 4, 0, 0],
       [0, 1, -11, 4, 0, 0], [0, -1, 26, -34, 0, 0, 0],
       [0, 1, -57, 180, -34, 0, 0, 0], [0, -1, 120, -768, 496, 0, 0, 0, 0]],
      "signed Andre triangle from the reverted integral"),
    F("a096078", "triangle", "oracletri(A096078,7)",
      [[1], [1, 1], [1, 4, 4], [1, 11, 34, 34], [1, 26, 180, 496, 496],
       [1, 57, 768, 4288, 11056, 11056],
       [1, 120, 2904, 28768, 141584, 349504, 349504]],
      "A096078 recurrence T(n,k)=(k+1)T(n-1,k)+(n-k+1)T(n,k-1); "
      "diagonal is A002105 reduced tangent numbers"),
    F("prodmat-etude3", "matrix",
      "prodmat(powq(1+2*r*(1-exp(x)),0-1/2),"
      "(exp(x)-1)/(1+2*r*(1-exp(x))),5)",
      [[[0, 1], 1, 0, 0, 0],
       [[0, 1, 2], [1, 5], 1, 0, 0],
       [0, [0, 6, 12], [2, 9], 1, 0],
       [0, 0, [0, 15, 30], [3, 13], 1],
       [0, 0, 0, [0, 28, 56], [4, 17]]],
      "tridiagonal production matrix of the descent-family moment array"),
    F("a176230-moments", "series", "sumudu(powq(1+2*r*x,0-1/2))",
      [1, [0, -1], [0, 0, 3], [0, 0, 0, -15], [0, 0, 0, 0, 105],
       [0, 0, 0, 0, 0, -945], [0, 0, 0, 0, 0, 0, 10395]],
      "A176230-related moments (2n-1)!! (-r)^n of 1/sqrt(1+2rz)"),
]


def all_fixtures() -> tuple:
    return tuple(_FIXTURES)


_BY_ID = {fx.id: fx for fx in _FIXTURES}
assert len(_BY_ID) == len(_FIXTURES), "duplicate fixture ids"


@dataclass(frozen=True)
class CaseResult:
    id: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Report:
    cases: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def summary(self) -> str:
        good = sum(1 for c in self.cases if c.passed)
        return f"{good}/{len(self.cases)} fixtures passed"


def _first_diff(kind, got, want, prefix: bool) -> Optional[str]:
    """The first place where ``got`` differs from ``want``, walking the
    entries of their kind to its depth; ``prefix`` lets every list of
    ``got`` run longer than its expected counterpart.  Rows that the kind
    labels (b and lambda, alpha and beta) are named by their label."""

    def walk(gs, ws, depth, label, names=()):
        if depth == 0:
            return None if gs == ws else f"{label}: got {gs}, expected {ws}"
        if not prefix and len(gs) != len(ws):
            return f"{label}: length {len(gs)} != {len(ws)}"
        if len(gs) < len(ws):
            return f"{label}: only {len(gs)} of {len(ws)} entries"
        for i, (g, w) in enumerate(zip(gs, ws)):
            sub = names[i].rstrip(": ") if names else f"{label}[{i}]"
            diff = walk(g, w, depth - 1, sub)
            if diff:
                return diff
        return None

    names = kind.labels if kind.depth == 2 else ()
    return walk(kind.entries(got), kind.entries(want), kind.depth, "entry", names)


def run_fixture(fx: Fixture) -> CaseResult:
    want = decode_expected(fx)
    kind = kind_of(want)
    if fx.order is not None:
        order = fx.order
    elif fx.kind == "series":
        order = len(fx.expected)
    else:
        order = max(len(fx.expected) if kind.depth else 0, 4)
    env = Env(order=order,
              r_value=Fraction(fx.set_r) if fx.set_r is not None else None)
    try:
        got = evaluate(parse(fx.build), env)
    except (ExprError, *MATH_ERRORS) as exc:
        return CaseResult(fx.id, False, f"error: {exc}")
    if type(got) is not type(want):
        convert = CONVERSIONS.get((type(got), type(want)))
        if convert is None:
            return CaseResult(fx.id, False, f"kind mismatch: got {kind_name(got)}")
        got = convert(got, order)
    diff = _first_diff(kind, got, want, fx.prefix)
    return CaseResult(fx.id, diff is None, diff or "")


def run_fixtures(ids=None) -> Report:
    """Run the selected fixtures (None runs them all; [] runs none)."""
    if ids is not None:
        missing = [i for i in ids if i not in _BY_ID]
        if missing:
            raise ValueError(f"unknown fixture ids: {', '.join(missing)}")
        chosen = [_BY_ID[i] for i in ids]
    else:
        chosen = _FIXTURES
    return Report(tuple(run_fixture(fx) for fx in chosen))


def render_report(report: Report, fmt: str = "table") -> str:
    if fmt == "json":
        return json.dumps(
            {
                "kind": "report",
                "summary": report.summary,
                "cases": [
                    {"id": c.id, "passed": c.passed, "detail": c.detail}
                    for c in report.cases
                ],
            },
            separators=(",", ":"),
        )
    if fmt == "csv":
        lines = [
            f"{c.id},{'PASS' if c.passed else 'FAIL'},\"{c.detail}\""
            for c in report.cases
        ]
        return "\n".join(lines + [report.summary])
    lines = []
    for c in report.cases:
        mark = "PASS" if c.passed else "FAIL"
        tail = f"  ({c.detail})" if c.detail else ""
        lines.append(f"{mark}  {c.id}{tail}")
    lines.append(report.summary)
    return "\n".join(lines)
