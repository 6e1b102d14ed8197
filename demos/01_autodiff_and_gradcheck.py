"""Tour of the numeric core: tensors, the tape, backward, and Adam.

Run:  python3 demos/01_autodiff_and_gradcheck.py
"""

import numpy as np

from factdesc.tensor import (
    AdamState, Tape, Tensor, adam_step, backward, grad_check,
    masked_softmax, matmul, nll, sum_all, tanh,
)

# Every model computation is built from a handful of primitives that
# record themselves on an explicit tape.  A tiny example: a quadratic
# form through a tanh.
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(3, 3)), requires_grad=True, name="w")
x = Tensor(rng.normal(size=(3, 1)), requires_grad=True, name="x")

with Tape() as tape:
    loss = sum_all(tanh(matmul(w, x)))
backward(loss, tape)

print("loss:", float(loss.data))
print("dloss/dw:\n", w.grad)
print("dloss/dx:\n", x.grad)

# The gradients can always be audited against central finite
# differences; the checker perturbs every parameter element.
def f(params):
    weight, vec = params
    return sum_all(tanh(matmul(weight, vec)))

print("\ngrad_check max relative error:", grad_check(f, [w, x]))

# Attention masks enter as -inf energies: masked entries come out
# exactly zero and the rest renormalize.  Distributions are rows, so one
# of them is a (1, K) batch.
energies = Tensor([[1.0, 2.0, -0.5]])
print("\nmasked softmax over slots 0..1 only:",
      masked_softmax(energies, np.array([True, True, False])).data[0])

# The class-indexed negative log-likelihood closes the loop from
# distribution to scalar loss; its softmax composition gives the
# familiar p - onehot gradient.
z = Tensor([[0.0, 0.0]], requires_grad=True)
with Tape() as tape:
    loss = nll(masked_softmax(z, np.array([True, True])), [0])
backward(loss, tape)
print("softmax-NLL gradient at uniform:", z.grad[0])

# One bias-corrected Adam step with the defaults moves a fresh
# parameter by almost exactly the learning rate.
values = np.zeros(1)  # adam_step updates one flat array, as it does the model's
adam_step(values, np.ones(1), AdamState(learning_rate=0.001))
print("\nparameter after one Adam step against gradient 1:", values)
