"""Every small rank-2 coset job, built and pinned as a whole.

H runs over the subgroups generated by at most two reduced words of
length 1 or 2 (137 generator sets, the trivial H included), E over {1}
plus one or two of a, b, A, B (10 windows), and F = {a, b}.  A job
whose H joins two of E's points is refused at canonicalize; every
other job builds a certificate, which must verify.  The refusal count,
the carrier sizes and one SHA-256 over the written certificates pin the
sweep, so a change to any separator, carrier or witness shows here.
Each job also has a bound, its carrier size when the table was made: a
smaller separator may shrink a carrier below its bound, never above it,
and a job refused then is still refused.
"""

import hashlib
import itertools
from collections import Counter

from soficert.actions import CosetAction
from soficert.builder import StageError, approximate, write_certificate
from soficert.verifier import verify_certificate
from soficert.words import parse_word

LETTERS = "abAB"
INVERSE = dict(zip(LETTERS, "ABab"))
WORDS = list(LETTERS) + [x + y for x in LETTERS for y in LETTERS if y != INVERSE[x]]
SUBGROUPS = [sub for k in range(3) for sub in itertools.combinations(WORDS, k)]
WINDOWS = [("1",) + extra for k in (1, 2) for extra in itertools.combinations(LETTERS, k)]

BUILT, REFUSED = 662, 708
CARRIER_SIZES = {2: 136, 3: 85, 5: 16, 6: 127, 8: 6, 24: 6, 60: 34, 120: 188, 360: 18,
                 720: 42, 5040: 4}
CARRIER_TOTAL = 83_041
DIGEST = "14ca53b8f34bdeea72e7bf20a24820994ea52d95058a56c21b680741e34fc6db"

# each job's bound, one character a job in sweep order and one group of
# ten windows a subgroup; "." is a job refused at canonicalize
SIZE_OF = dict(zip(".abcdefghijk", (0, 2, 3, 5, 6, 8, 24, 60, 120, 360, 720, 5040)))
BOUNDS = [SIZE_OF[c] for c in "".join("""
bbbbkckkck .b.b....c. b.b..c.... .b.b....c. b.b..c.... afafj.ijji
ddddjji.hh ddddihhjj. bdbbjg.ijg eaeajjjj.j ddddihhjj. bbbb.ggggi
afafj.ijji bdbbjg.ijg bbbb.ggggi ddddjji.hh eaeajjjj.j ..........
.b.b....c. .......... .b.b....c. .......... .......... ..........
.a.a...... .......... .......... .b.b....c. .......... ..........
.......... .a.a...... .......... b.b..c.... a.a....... ..........
.......... .......... b.b..c.... .......... .......... a.a.......
.......... .......... .......... b.b..c.... .......... .b.b....c.
.......... .......... .......... .a.a...... .......... ..........
.b.b....c. .......... .......... .......... .a.a...... a.a.......
.......... .......... .......... b.b..c.... .......... ..........
a.a....... .......... .......... .......... b.b..c.... aaad..h.hh
adaah..hh. adaah..hh. ddddh.hh.h adaah..hh. aaad..h.hh afafj.ijji
adaah..hh. aaad..h.hh aaad..h.hh ddddh.hh.h daaahhh... bbbbhh..hh
daaahhh... daaahhh... aaad..h.hh aaad..h.hh bbbbhh..hh aaad..h.hh
ddddjji.hh daaahhh... adaah..hh. daaahhh... ddddihhjj. bbbb.gggg.
adaah..hh. adaah..hh. bbbb.gggg. daaahhh... daaahhh... dddd.h.h.h
adaah..hh. dddd.h.h.h adaah..hh. bdbbjg.ijg dddd.h.h.h bbbbhh..hh
dddd.h.h.h daaahhh... dddd.h.h.h ddddh.hh.h dddd.h.h.h dddd.h.h.h
daaahhh... eaeajjjj.j bbbb.gggg. adaah..hh. adaah..hh. bbbb.gggg.
daaahhh... daaahhh... aaad..h.hh dddd.h.h.h bbbb.ggggi aaad..h.hh
dddd.h.h.h adaah..hh. aaad..h.hh aaad..h.hh ddddh.hh.h dddd.h.h.h
bbbbhh..hh dddd.h.h.h aaad..h.hh dddd.h.h.h daaahhh...
""".split())]


def test_rank_two_coset_sweep(tmp_path):
    assert (len(SUBGROUPS), len(WINDOWS), len(BOUNDS)) == (137, 10, 1370)
    w2 = lambda t: parse_word(t, 2)
    F = [w2("a"), w2("b")]
    path = str(tmp_path / "cert.json")
    digest = hashlib.sha256()
    sizes: Counter = Counter()
    refused = 0
    bounds = iter(BOUNDS)
    for sub in SUBGROUPS:
        spec = CosetAction(2, tuple(map(w2, sub)))
        for window, bound in zip(WINDOWS, bounds):
            try:
                cert = approximate(spec, F, [w2("" if t == "1" else t) for t in window])
            except StageError as exc:
                assert bound == 0, (sub, window, str(exc))
                assert (exc.stage, str(exc.cause)) == ("canonicalize", "duplicate points in E")
                refused += 1
                continue
            assert verify_certificate(cert).accepted, (sub, window)
            assert 0 < cert.approx.size <= bound, (sub, window, cert.approx.size, bound)
            sizes[cert.approx.size] += 1
            write_certificate(cert, path)
            with open(path, "rb") as f:
                digest.update(f.read())
    assert (sum(sizes.values()), refused) == (BUILT, REFUSED)
    assert dict(sizes) == CARRIER_SIZES
    assert sum(size * count for size, count in sizes.items()) == CARRIER_TOTAL
    assert digest.hexdigest() == DIGEST
