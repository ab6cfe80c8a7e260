"""Fisher information of the detected counts versus loss placement.

Scans the per-photon (normalized) Fisher information over the rotation
angle for several interaction strengths, with the detection loss placed
after or before the interaction.  Losses before the interaction can never
push the normalized information above one; losses after can, once the
decay is strong enough.
"""

import numpy as np

from rydsense.multiparticle import (
    LOSS_AFTER,
    LOSS_BEFORE,
    ProtocolParams,
    normalized_fi,
)

thetas = np.linspace(0.2, 2.9, 12)
gamma_taus = (0.0, 0.04, 0.15, 0.3)

for order in (LOSS_AFTER, LOSS_BEFORE):
    print(f"loss order: {order}")
    # one batched call per column: the exact FI of every angle at once
    columns = [
        normalized_fi(ProtocolParams(55.0, 0.02, gamma_tau, loss_order=order), thetas)
        for gamma_tau in gamma_taus
    ]
    header = "theta".rjust(7) + "".join(f"  gt={g:<5}" for g in gamma_taus)
    print(header)
    for i, theta in enumerate(thetas):
        print(f"{theta:7.2f}" + "".join(f"{column[i]:8.3f}" for column in columns))
    print("peak per column: " + "  ".join(f"{column.max():.3f}" for column in columns))
    print()

print("with losses after the interaction the normalized information exceeds")
print("one above a decay threshold; with losses before, it never does.")
