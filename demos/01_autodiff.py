"""A tour of the differentiable core: tensors, the tape, gradient checks
and the Adam optimizer. Everything downstream (encoders, structure
learning, training) is built from these few primitives."""

import numpy as np

from tgsl import autodiff as ad

rng = np.random.default_rng(0)

# --- forward ops build values; a Tape records them -------------------------
a = ad.param(rng.standard_normal((3, 4)), name="a")
b = ad.param(rng.standard_normal((4, 2)), name="b")

with ad.Tape() as tape:
    h = ad.relu(ad.matmul(a, b))
    loss = ad.mean(ad.mul(ad.sigmoid(h), h))
    print(f"loss = {loss.item():.6f}, tape recorded {len(tape)} ops")
    tape.backward(loss)

print("grad wrt a, first row:", np.round(a.grad[0], 4))

# --- gradients agree with central finite differences ------------------------
def f(x, y):
    return ad.mean(ad.mul(ad.sigmoid(ad.relu(ad.matmul(x, y))),
                          ad.relu(ad.matmul(x, y))))

res = ad.grad_check(f, [a.values, b.values])
print(f"finite-difference check: max rel err {res.max_rel_err:.2e} "
      f"over {res.n_checked} coordinates")

# --- a few optimizer steps shrink the loss ----------------------------------
opt = ad.AdamState([a, b], lr=0.05)
for step in range(5):
    a.zero_grad()
    b.zero_grad()
    with ad.Tape() as tape:
        loss = f(a, b)
        tape.backward(loss)
    ad.adam_step(opt)
    print(f"step {step}: loss = {loss.item():.6f}")
