"""For linear systems with a subspace target, the transverse controllability
condition reduces to a matrix rank test:

    rank [ basis(N) | B | AB | ... | A^(n-n*-1) B ] = n.

This script draws random controllable pairs with invariant subspaces and
shows the geometric check agreeing with the rank test on every instance.

Run:  python demos/lti_reduction.py [count]
"""

import random
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0] + "/tests")

from tflkit.lift import lift_system
from tflkit.pfaffian import derived_flag
from _checks import check_con
from _lti import random_lti_instance, rank_test_oracle


def main(count=25):
    rng = random.Random(2024)
    agree = 0
    for i in range(count):
        sysm, A, B, r = random_lti_instance(rng)
        ls = lift_system(sysm)
        flag = derived_flag(ls.I0)
        geometric = check_con(ls, flag)
        algebraic = rank_test_oracle(A, B, r)
        agree += geometric == algebraic
        n = A.shape[0]
        print(f"instance {i:2d}: n={n} m={B.shape[1]} codim={r}  "
              f"geometric={str(geometric):5s} rank-test={algebraic}")
    print(f"\nagreement: {agree}/{count}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 25)
