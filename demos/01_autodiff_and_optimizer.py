"""A walk through the numeric core: tensors, backprop, and Adam.

Everything in this package runs on a small tape-based autodiff engine over
float64 numpy arrays. This script builds a few expressions, checks one
gradient against central finite differences by hand, and lets Adam walk down
a quadratic bowl.
"""

import numpy as np

from offgraph import Adam, Tensor, xavier_normal_init
from offgraph import tensor as T

print("== gradients flow through composed expressions ==")
w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
loss = T.relu(w @ w).sum()
loss.backward()
print("loss:", loss.item())
print("dloss/dw:\n", w.grad)

print("\n== spot-check against finite differences ==")
x = Tensor([[0.3, -1.2, 0.8]], requires_grad=True)
fn = lambda: (T.softmax(x, axis=-1) * Tensor([[1.0, 2.0, 3.0]])).sum()
fn().backward()
h = 1e-5
numeric = np.zeros(3)
for i in range(3):
    x.data[0, i] += h
    up = fn().item()
    x.data[0, i] -= 2 * h
    down = fn().item()
    x.data[0, i] += h
    numeric[i] = (up - down) / (2 * h)
print("analytic:", np.round(x.grad[0], 8))
print("numeric: ", np.round(numeric, 8))

print("\n== Xavier initialization hits its target spread ==")
table = xavier_normal_init(768, 768, np.random.default_rng(0))
print(f"sample std {table.data.std():.5f} vs sqrt(2/1536) = {np.sqrt(2/1536):.5f}")

print("\n== Adam on a 1-D quadratic ==")
p = Tensor([-4.0], requires_grad=True)
opt = Adam([p], learning_rate=0.1)
for step in range(200):
    p.grad = 2.0 * (p.data - 3.0)  # d/dp (p - 3)^2
    opt.step()
    if step % 50 == 0:
        print(f"step {step:3d}  p = {p.data[0]: .4f}  loss = {(p.data[0] - 3)**2:.6f}")
print(f"final  p = {p.data[0]:.4f} after {opt.step_count} updates")
