"""Numeric core tests: primitive forwards, tape gradients, Adam.

Gradients are checked against central finite differences, which stay
independent of the tape rules they verify.
"""

import numpy as np
import pytest

from factdesc import tensor as T
from factdesc.errors import (
    ConfigError,
    InvalidMaskError,
    ShapeError,
    TrainingDivergenceError,
)


def test_matmul_identity():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = T.Tensor(np.eye(2))
    assert np.array_equal(T.matmul(a, eye).data, a.data)


def test_matmul_hand_product():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0], [6.0]])
    assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError) as exc:
        T.matmul(a, b)
    assert "(2, 3)" in str(exc.value)
    # a 1-D operand is no vector: a row is (1, k), a column (k, 1)
    for a, b in (((2, 3), (3,)), ((2,), (2, 3))):
        with pytest.raises(ShapeError) as exc:
            T.matmul(T.Tensor(np.zeros(a)), T.Tensor(np.zeros(b)))
        assert "(2, 3)" in str(exc.value)


def test_masked_softmax_uniform():
    v = T.Tensor([[0.0, 0.0, 0.0]])
    p = T.masked_softmax(v, np.array([True, True, True]))
    assert np.allclose(p.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_masked_softmax_two_live_entries():
    v = T.Tensor([[1.0, 2.0, 123.0]])
    p = T.masked_softmax(v, np.array([True, True, False])).data[0]
    assert p[2] == 0.0
    assert abs(p[0] - 0.2689) < 1e-4
    assert abs(p[1] - 0.7311) < 1e-4
    assert abs(p.sum() - 1.0) < 1e-12


def test_masked_softmax_all_masked_rejected():
    with pytest.raises(InvalidMaskError):
        T.masked_softmax(T.Tensor([[1.0, 2.0]]), np.array([False, False]))

def test_masked_softmax_rows_with_per_row_masks():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 7)) * 5
    mask = rng.uniform(size=(5, 7)) < 0.5
    mask[np.arange(5), rng.integers(0, 7, 5)] = True
    p = T.masked_softmax(T.Tensor(x), mask).data
    for row, row_mask, out in zip(x, mask, p):
        assert np.array_equal(out, T.masked_softmax(T.Tensor(row[None]), row_mask).data[0])
    shared = T.masked_softmax(T.Tensor(x), mask[0]).data
    for row, out in zip(x, shared):
        assert np.array_equal(out, T.masked_softmax(T.Tensor(row[None]), mask[0]).data[0])
    dead = mask.copy()
    dead[3] = False
    with pytest.raises(InvalidMaskError):
        T.masked_softmax(T.Tensor(x), dead)
    for bad in (mask[:, :6], mask[:4], mask[None]):
        with pytest.raises(ShapeError):
            T.masked_softmax(T.Tensor(x), bad)
    with pytest.raises(ShapeError):  # one row without its row axis
        T.masked_softmax(T.Tensor(x[0]), mask[0])


def test_nll_over_rows_sums_and_scatters():
    rng = np.random.default_rng(10)
    p = T.Tensor(rng.dirichlet(np.ones(4), size=3), requires_grad=True)
    gold = [2, 0, 2]
    with T.Tape() as tape:
        loss = T.nll(p, gold)
    assert float(loss.data) == pytest.approx(
        -sum(np.log(p.data[i, g]) for i, g in enumerate(gold)), rel=1e-15)
    T.backward(loss, tape)
    expected = np.zeros((3, 4))
    for i, g in enumerate(gold):
        expected[i, g] = -1.0 / p.data[i, g]
    assert np.array_equal(p.grad, expected)
    with pytest.raises(ShapeError):
        T.nll(p, [0, 1])
    with pytest.raises(ShapeError):  # one distribution without its row axis
        T.nll(T.Tensor(p.data[0]), 2)
    p.grad = None
    with T.Tape() as tape:
        loss = T.nll(p, [1, 3], rows=[2, 0])
    assert float(loss.data) == -np.log(p.data[2, 1]) - np.log(p.data[0, 3])
    T.backward(loss, tape)
    assert np.count_nonzero(p.grad) == 2 and p.grad[1].tolist() == [0.0] * 4

@pytest.mark.parametrize("steps", range(1, 7))
def test_gru_gradients_match_finite_differences(steps):
    # all 5 inputs, including a random initial state
    rng = np.random.default_rng(300 + steps)
    hidden = 3
    params = _random_params(rng, (1, steps, 3 * hidden), (1, hidden), *[(hidden, hidden)] * 3)
    weights = T.Tensor(rng.normal(size=(1, steps, hidden)))

    def f(ps):
        return T.sum_all(T.mul(T.gru(*ps), weights))

    assert T.grad_check(f, params) < 1e-6
    assert all(p.grad is not None and np.abs(p.grad).max() > 0 for p in params)


@pytest.mark.parametrize("batch,steps", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_batched_gru_gradients_match_finite_differences(batch, steps):
    rng = np.random.default_rng(400 + 10 * batch + steps)
    hidden = 3
    params = _random_params(rng, (batch, steps, 3 * hidden), (batch, hidden),
                            *[(hidden, hidden)] * 3)
    weights = T.Tensor(rng.normal(size=(batch, steps, hidden)))

    def f(ps):
        return T.sum_all(T.mul(T.gru(*ps), weights))

    assert T.grad_check(f, params) < 1e-6
    assert all(p.grad is not None and np.abs(p.grad).max() > 0 for p in params)


def test_batched_gru_rows_equal_one_sequence_each():
    rng = np.random.default_rng(12)
    weights = _random_params(rng, *[(3, 3)] * 3)
    x, h0 = rng.normal(size=(4, 5, 9)), rng.normal(size=(4, 3))
    rows = T.gru(T.Tensor(x), T.Tensor(h0), *weights).data
    assert rows.shape == (4, 5, 3)
    for b in range(4):
        one = T.gru(T.Tensor(x[b:b + 1]), T.Tensor(h0[b:b + 1]), *weights).data
        assert np.allclose(rows[b], one[0], rtol=0.0, atol=1e-14)


def test_batched_gru_padded_steps_get_exactly_zero_gradient():
    # sequences of 2, 5 and 3 steps padded to 5; the loss reads no padded state
    rng = np.random.default_rng(13)
    lengths = [2, 5, 3]
    live = np.arange(5)[None, :] < np.array(lengths)[:, None]
    data = rng.normal(size=(3, 5, 9))
    h0 = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    weights = _random_params(rng, *[(3, 3)] * 3)
    read = T.Tensor(rng.normal(size=(3, 5, 3)) * live[..., None])

    def grads(padding):
        x = T.Tensor(data.copy(), requires_grad=True)
        x.data[~live] = padding
        for p in (h0, *weights):
            p.grad = None
        with T.Tape() as tape:
            loss = T.sum_all(T.mul(T.gru(x, h0, *weights), read))
        T.backward(loss, tape)
        return x.grad, [h0.grad.copy()] + [w.grad.copy() for w in weights]

    x_grad, base = grads(0.0)
    assert (x_grad[~live] == 0.0).all() and (x_grad[live] != 0.0).all()
    _, moved = grads(rng.normal(size=(int((~live).sum()), 9)) * 50)
    for a, b in zip(base, moved):
        assert np.array_equal(a, b)


def test_gru_rejects_mismatched_shapes():
    rng = np.random.default_rng(11)
    weights = _random_params(rng, *[(3, 3)] * 3)
    # gate inputs not 3H wide, state rows, and one sequence (T, 3H) without a batch axis
    for x, h0 in (((1, 2, 8), (1, 3)), ((1, 2, 6), (1, 3)), ((1, 2, 9), (2, 3)),
                  ((2, 9), (1, 3))):
        with pytest.raises(ShapeError):
            T.gru(T.Tensor(np.zeros(x)), T.Tensor(np.zeros(h0)), *weights)


def test_backward_sum_gives_ones():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(x)
    T.backward(loss, tape)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = T.Tensor([3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
    T.backward(loss, tape)
    assert np.allclose(x.grad, [6.0])


def test_backward_softmax_nll_is_p_minus_onehot():
    z = T.Tensor([[0.0, 0.0]], requires_grad=True)
    with T.Tape() as tape:
        p = T.masked_softmax(z, np.array([True, True]))
        loss = T.nll(p, [0])
    T.backward(loss, tape)
    assert np.allclose(z.grad, [[-0.5, 0.5]])


def test_backward_requires_scalar_loss():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ShapeError):
        T.backward(y, tape)


def test_backward_accumulates_across_tapes():
    x = T.Tensor([2.0], requires_grad=True)
    for _ in range(2):
        with T.Tape() as tape:
            loss = T.sum_all(T.mul(x, x))
        T.backward(loss, tape)
    assert np.allclose(x.grad, [8.0])


def test_backward_releases_intermediate_gradients():
    x = T.Tensor([2.0, 3.0], requires_grad=True)
    with T.Tape() as tape:
        y = T.mul(x, x)
        loss = T.sum_all(y)
    T.backward(loss, tape)
    assert np.array_equal(x.grad, [4.0, 6.0])
    assert y.grad is None and loss.grad is None
    assert all(node.grad_fn is None for node in tape.nodes)


def test_unreached_parameters_keep_zero_grads():
    x = T.Tensor([1.0], requires_grad=True)
    y = T.Tensor([1.0], requires_grad=True)
    y.grad = np.zeros(1)  # preallocated, as a model's gradient views are
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
    T.backward(loss, tape)
    assert np.array_equal(y.grad, [0.0])


def test_adam_zero_gradient_keeps_params():
    values = np.array([1.0, -2.0])
    T.adam_step(values, np.zeros(2), T.AdamState())
    assert np.array_equal(values, [1.0, -2.0])


def test_adam_first_step_matches_hand_value():
    values = np.zeros(1)
    state = T.AdamState(learning_rate=0.001)
    T.adam_step(values, np.ones(1), state)
    assert state.step == 1
    assert abs(values[0] + 0.001) < 1e-6


def test_adam_rejects_nonfinite_gradient():
    values, grad = np.zeros(3), np.array([0.0, 1.0, np.nan])
    with pytest.raises(TrainingDivergenceError) as exc:
        T.adam_step(values, grad, T.AdamState(), lambda i: "weights" if i >= 1 else "bias")
    assert "weights" in str(exc.value)
    assert np.array_equal(values, np.zeros(3))  # nothing updated


def test_adam_rejects_nonpositive_learning_rate():
    for learning_rate in (0.0, -1.0, np.nan, np.inf):
        values = np.zeros(2)
        with pytest.raises(ConfigError):
            T.adam_step(values, np.ones(2), T.AdamState(learning_rate=learning_rate))
        assert np.array_equal(values, np.zeros(2)), learning_rate


def _adam_reference(values, grad, state):
    # the update written with temporaries, as a plain formula
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
    state.step += 1
    bc1 = 1.0 - T.ADAM_BETA1 ** state.step
    bc2 = 1.0 - T.ADAM_BETA2 ** state.step
    scale = state.learning_rate / bc1
    state.m *= T.ADAM_BETA1
    state.m += (1.0 - T.ADAM_BETA1) * grad
    state.v *= T.ADAM_BETA2
    state.v += (1.0 - T.ADAM_BETA2) * (grad * grad)
    values -= scale * state.m / (np.sqrt(state.v / bc2) + T.ADAM_EPSILON)


def _adam_matches_the_formula(size):
    rng = np.random.default_rng(15)
    ours = rng.normal(size=size)
    theirs = ours.copy()
    our_state, their_state = T.AdamState(0.01), T.AdamState(0.01)
    for _ in range(12):
        grad = rng.normal(size=size) * rng.choice([1e-6, 1.0, 1e3], size=size)
        kept = grad.copy()
        T.adam_step(ours, grad, our_state)
        _adam_reference(theirs, grad, their_state)
        assert np.array_equal(grad, kept)
        assert np.array_equal(ours, theirs)
        assert np.array_equal(our_state.m, their_state.m)
        assert np.array_equal(our_state.v, their_state.v)


def test_adam_equals_the_formula_bit_for_bit():
    _adam_matches_the_formula(87)  # one update in one chunk


CHUNK = T.ADAM_CHUNK


@pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+7"])
def test_adam_chunks_equal_the_formula_bit_for_bit(size):
    _adam_matches_the_formula(size)  # the last chunk cut short, or not


def test_grad_check_square():
    x = T.Tensor([1.0], requires_grad=True)

    def f(params):
        return T.sum_all(T.mul(params[0], params[0]))

    assert T.grad_check(f, [x]) < 1e-8


def test_grad_check_constant_function():
    x = T.Tensor([1.0, 2.0], requires_grad=True)

    def f(params):
        return T.Tensor(5.0)

    assert T.grad_check(f, [x]) == 0.0


def _ragged_runs(n):
    """Runs of 1, 2, 3, ... rows covering n rows, the last one cut short."""
    runs = []
    while sum(runs) < n:
        runs.append(min(len(runs) + 1, n - sum(runs)))
    return runs


def _random_params(rng, *shapes):
    return [T.Tensor(rng.uniform(-1.0, 1.0, s), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("seed", range(4))
def test_grad_check_every_primitive(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(2, 8))
    k = int(rng.integers(2, 8))

    a, b = _random_params(rng, (n, k), (k, m))
    w, bias = _random_params(rng, (m, k), (m,))
    vec = _random_params(rng, (n,))[0]
    table = _random_params(rng, (5, k))[0]
    mask = np.zeros(n, dtype=bool)
    mask[: max(1, n // 2)] = True
    idx = rng.integers(0, 5, size=3)
    weights = _random_params(rng, (n, m))[0]
    row_mask = rng.uniform(size=(n, m)) < 0.6
    row_mask[:, 0] = True
    gold = np.zeros(n, dtype=int)
    runs = _ragged_runs(n)

    cases = {
        "add": (lambda ps: T.sum_all(T.add(ps[0], ps[0])), [a]),
        "mul": (lambda ps: T.sum_all(T.mul(ps[0], ps[1])), _random_params(rng, (n, m), (n, m))),
        "matmul": (lambda ps: T.sum_all(T.matmul(ps[0], ps[1])), [a, b]),
        "affine": (lambda ps: T.sum_all(T.tanh(T.affine(ps[0], ps[1], ps[2]))), [a, w, bias]),
        "concat": (lambda ps: T.sum_all(T.mul(c := T.concat(ps, axis=0), c)),
                   _random_params(rng, (2, m), (3, m))),
        "tanh": (lambda ps: T.sum_all(T.tanh(ps[0])), [vec]),
        "masked_softmax": (lambda ps: T.nll(T.masked_softmax(T.reshape(ps[0], (1, n)), mask),
                                            [0]), [vec]),
        "masked_softmax rows": (lambda ps: T.nll(T.masked_softmax(ps[0], row_mask), gold),
                                [weights]),
        "embedding_rows": (lambda ps: T.sum_all(T.mul(e := T.embedding_rows(ps[0], idx), e)),
                           [table]),
        "matmul stacked": (lambda ps: T.sum_all(T.tanh(T.matmul(ps[0], ps[1]))),
                           _random_params(rng, (2, n, k), (2, k, m))),
        "transpose": (lambda ps: T.sum_all(T.mul(T.transpose(ps[0]), ps[1])),
                      _random_params(rng, (n, k), (k, n))),
        "getitem": (lambda ps: T.sum_all(T.mul(q := T.getitem(ps[0], np.s_[:, 1:]), q)), [a]),
        "additive_energies": (lambda ps: T.sum_all(T.mul(e := T.additive_energies(*ps), e)),
                              _random_params(rng, (m, k), (n, k), (1, k), (1,))),
        "additive_energies blocks": (lambda ps: T.sum_all(T.tanh(T.additive_energies(*ps))),
                                     _random_params(rng, (2, m, k), (2, n, k), (1, k), (1,))),
        "nll rows": (lambda ps: T.nll(T.masked_softmax(ps[0], row_mask), [0, 0], rows=[n - 1, 0]),
                     [weights]),
        "embedding_rows grid": (lambda ps: T.sum_all(T.mul(
            e := T.embedding_rows(ps[0], idx.reshape(3, 1)), e)), [table]),
        "embedding_rows 3-D table": (lambda ps: T.sum_all(T.mul(
            e := T.embedding_rows(ps[0], idx + 1), e)), _random_params(rng, (2, 3, k))),
        "gru": (lambda ps: T.sum_all(T.mul(g := T.gru(*ps), g)),
                _random_params(rng, (1, n, 3 * m), (1, m), *[(m, m)] * 3)),
        "gru batch": (lambda ps: T.sum_all(T.mul(g := T.gru(*ps), g)),
                      _random_params(rng, (3, n, 3 * m), (3, m), *[(m, m)] * 3)),
        "segment_sum": (lambda ps: T.sum_all(T.mul(s := T.segment_sum(ps[0], runs), s)), [a]),
        "reshape": (lambda ps: T.sum_all(T.mul(r := T.reshape(ps[0], (k, n)), r)), [a]),
    }
    for name, (fn, params) in cases.items():
        err = T.grad_check(fn, params)
        assert err < 1e-6, f"{name}: max relative error {err}"


def test_segment_sum_sums_each_run():
    x = T.Tensor(np.arange(12.0).reshape(6, 2))
    assert np.array_equal(T.segment_sum(x, [1, 3, 2]).data, [[0, 1], [12, 15], [18, 20]])
    assert np.array_equal(T.segment_sum(x, [6]).data, [[30, 36]])


@pytest.mark.parametrize("runs", [[1, 3, 1], [2, 3, 2], [3, 0, 3], [6, 0], [-1, 7], [], [[6]]])
def test_segment_sum_rejects_runs_that_do_not_split_the_rows(runs):
    with pytest.raises(ShapeError):
        T.segment_sum(T.Tensor(np.ones((6, 2))), runs)


def test_embedding_rows_accumulates_duplicate_indices():
    table = T.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    idx = [2, 2, 1, 2]

    def f(params):
        rows = T.embedding_rows(params[0], idx)
        return T.sum_all(T.mul(rows, rows))

    assert T.grad_check(f, [table]) < 1e-6
    table.grad = None
    with T.Tape() as tape:
        loss = T.sum_all(T.embedding_rows(table, idx))
    T.backward(loss, tape)
    assert np.array_equal(table.grad, [[0, 0], [1, 1], [3, 3], [0, 0]])


@pytest.mark.parametrize("seed", range(12))
def test_embedding_rows_gradient_equals_a_scatter_add_bit_for_bit(seed):
    # rows repeat, magnitudes span 1e-8..1e8 (so the order of the additions
    # shows in the bits), and the index array may be empty or a grid
    rng = np.random.default_rng(seed)
    rows, width = int(rng.integers(1, 30)), int(rng.integers(1, 12))
    shape = [(0,), (int(rng.integers(1, 60)),), tuple(rng.integers(1, 6, 2))][seed % 3]
    idx = rng.integers(0, rows, shape)
    g = rng.standard_normal(shape + (width,)) * 10.0 ** rng.integers(-8, 9, shape + (width,))
    table = T.Tensor(rng.standard_normal((rows, width)), requires_grad=True)
    with T.Tape() as tape:
        T.embedding_rows(table, idx)
    expected = np.zeros((rows, width))
    np.add.at(expected, idx.reshape(-1), g.reshape(-1, width))
    assert np.array_equal(tape.nodes[0].grad_fn(g)[0], expected)


def test_embedding_rows_of_a_3d_table_equal_those_of_its_2d_reshape_bit_for_bit():
    rng = np.random.default_rng(7)
    data, idx = rng.standard_normal((2, 3, 4)), np.array([[5, 0], [3, 5], [2, 5]])
    g = rng.standard_normal((3, 2, 4)) * 10.0 ** rng.integers(-8, 9, (3, 2, 4))
    grads = []
    for shape in ((2, 3, 4), (6, 4)):
        table = T.Tensor(data.reshape(shape), requires_grad=True)
        with T.Tape() as tape:
            rows = T.embedding_rows(table, idx)
        assert np.array_equal(rows.data, data.reshape(6, 4)[idx])
        grads.append(tape.nodes[0].grad_fn(g)[0])
        assert grads[-1].shape == shape
    assert np.array_equal(grads[0].reshape(6, 4), grads[1])


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_relu_away_from_kink(seed):
    rng = np.random.default_rng(200 + seed)
    x = T.Tensor(np.sign(rng.uniform(-1, 1, 6)) * rng.uniform(0.1, 1.0, 6), requires_grad=True)

    def f(params):
        return T.sum_all(T.mul(r := T.relu(params[0]), r))

    assert T.grad_check(f, [x]) < 1e-4


def test_masked_softmax_distribution_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        mask = rng.uniform(size=n) < 0.6
        if not mask.any():
            mask[int(rng.integers(0, n))] = True
        p = T.masked_softmax(T.Tensor(rng.normal(size=(1, n)) * 10), mask).data[0]
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-12
        assert (p[~mask] == 0.0).all()


def test_replay_is_deterministic():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def run():
        x.grad = None
        w.grad = None
        with T.Tape() as tape:
            loss = T.sum_all(T.tanh(T.matmul(x, w)))
        T.backward(loss, tape)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
