import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp, softmax

from gradcheck import fd_gradient, project, rel_error
from transecg import autodiff as ad
from transecg.autodiff import AdamW, Tensor


def check_op(build, arrays, rtol=1e-4, eps=1e-6):
    """Compare autodiff grads of sum(build(tensors)) against finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with ad.recording():
        ad.backward(project(build(tensors)))

    def scalar(arrs):
        return float(project(build([Tensor(a) for a in arrs])).data)

    for i, t in enumerate(tensors):
        numeric = fd_gradient(scalar, arrays, i, eps=eps)
        assert rel_error(t.grad, numeric) < rtol, f"input {i}"


class TestBasicOps:
    def test_matmul_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(x))
        assert np.allclose(out.data, x)

    def test_matmul_hand_value(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        assert np.array_equal(out.data, [[17.0], [39.0]])

    def test_matmul_shape_mismatch_message(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 1 / 3)

    def test_softmax_overflow_safe(self):
        out = ad.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(1).normal(size=(3, 7))
        out = ad.softmax(Tensor(x), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(out.data >= 0)

    def test_layer_norm_constant_row(self):
        out = ad.layer_norm(Tensor(np.full((1, 8), 3.0)), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        assert np.allclose(out.data, 0.0)

    def test_layer_norm_standardizes(self):
        out = ad.layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert abs(out.data.mean()) < 1e-7
        assert out.data.var() == pytest.approx(1.0, abs=1e-3)

    def test_gelu_zero(self):
        assert ad.gelu(Tensor(0.0)).data == 0.0

    def test_linear_identity(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        out = ad.matmul(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, x)


class TestGradients:
    rng = np.random.default_rng(7)

    def test_matmul(self):
        check_op(lambda t: ad.matmul(t[0], t[1]),
                 [self.rng.normal(size=(4, 5)), self.rng.normal(size=(5, 3))], rtol=1e-5)

    def test_matmul_batched(self):
        check_op(lambda t: ad.matmul(t[0], t[1]),
                 [self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(4, 3))])

    def test_softmax(self):
        w = self.rng.normal(size=(3, 7))
        check_op(lambda t: project(ad.softmax(t[0], axis=-1), w),
                 [self.rng.normal(size=(3, 7))], rtol=1e-5)

    def test_layer_norm(self):
        w = self.rng.normal(size=(2, 8))
        check_op(lambda t: project(ad.layer_norm(t[0], t[1], t[2]), w),
                 [self.rng.normal(size=(2, 8)), self.rng.normal(size=8),
                  self.rng.normal(size=8)])

    def test_gelu(self):
        check_op(lambda t: ad.gelu(t[0]), [self.rng.normal(size=(3, 5))])

    def test_add_broadcast(self):
        check_op(lambda t: ad.add(t[0], t[1]),
                 [self.rng.normal(size=(4, 3)), self.rng.normal(size=3)])

    def test_sub_scale(self):
        w = self.rng.normal(size=(3, 3))
        check_op(lambda t: project(ad.scale(ad.add(t[0], ad.scale(t[1], -1.0)), 2.5), w),
                 [self.rng.normal(size=(3, 3)), self.rng.normal(size=(3, 3))])

    def test_transpose_reshape_concat_slice(self):
        w = self.rng.normal(size=(4, 4))

        def build(t):
            a = ad.transpose(t[0], (1, 0, 2))
            b = ad.reshape(a, (6, 4))
            c = ad.concat([b, t[1]], axis=0)
            return project(ad.index(c, (slice(1, 5), slice(None))), w)
        check_op(build, [self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(2, 4))])

    def test_cross_entropy(self):
        labels = np.array([0, 2, 1, 2])
        check_op(lambda t: ad.cross_entropy(t[0], labels), [3 * self.rng.normal(size=(4, 3))],
                 rtol=1e-5)

    def test_attention(self):
        shape = (2, 3, 4)   # B, T, H*dh with 2 heads of width 2
        w = self.rng.normal(size=shape)
        check_op(lambda t: project(ad.attention(t[0], t[1], t[2], 2)[0], w),
                 [self.rng.normal(size=shape) for _ in range(3)])

    def test_layer_norm_residual(self):
        w = self.rng.normal(size=(2, 8))
        check_op(lambda t: project(ad.layer_norm(t[0], t[1], t[2], residual=t[3],
                                                 residual_scale=1.25), w),
                 [self.rng.normal(size=(2, 8)), self.rng.normal(size=8),
                  self.rng.normal(size=8), self.rng.normal(size=(2, 8))])

    def test_linear_bias(self):
        w = self.rng.normal(size=(2, 3, 5))
        check_op(lambda t: project(ad.matmul(t[0], t[1], t[2]), w),
                 [self.rng.normal(size=(2, 3, 4)), self.rng.normal(size=(4, 5)),
                  self.rng.normal(size=5)])

    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_shapes(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(2, 6, size=3)
        w = rng.normal(size=(m, n))
        def build(t):
            h = ad.gelu(ad.matmul(t[0], t[1]))
            s = ad.softmax(ad.layer_norm(h, t[2], t[3]), axis=-1)
            return project(s, w)
        check_op(build, [rng.normal(size=(m, k)), rng.normal(size=(k, n)),
                         rng.normal(size=n) + 1.0, rng.normal(size=n)])


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@given(data=st.data())
def test_matmul_with_2d_right_operand_matches_einsum(data):
    rank = data.draw(st.integers(2, 4), label="rank")
    lead = data.draw(st.lists(st.integers(1, 4), min_size=rank - 1, max_size=rank - 1))
    k, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a_transposed, b_transposed = data.draw(st.booleans()), data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a_shape = (*lead, k)
    # a transposed view has the same shape but reversed strides
    a = rng.normal(size=a_shape[::-1]).T if a_transposed else rng.normal(size=a_shape)
    b = rng.normal(size=(n, k)).T if b_transposed else rng.normal(size=(k, n))
    g = rng.normal(size=(*lead, n))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with ad.recording():
        out = ad.matmul(ta, tb)
        ad.backward(project(out, g))
    rows = "ijl"[:rank - 1]
    assert _rel_err(out.data, np.einsum(f"{rows}k,kn->{rows}n", a, b)) <= 1e-12
    assert _rel_err(ta.grad, np.einsum(f"{rows}n,kn->{rows}k", g, b)) <= 1e-12
    assert _rel_err(tb.grad, np.einsum(f"{rows}k,{rows}n->kn", a, g)) <= 1e-12


@given(logits=st.integers(1, 6).flatmap(lambda b: st.integers(1, 5).flatmap(
           lambda k: arrays(np.float64, (b, k), elements=st.floats(-1e3, 1e3)))),
       data=st.data())
def test_cross_entropy_matches_logsumexp(logits, data):
    """The loss node against a NumPy float64 reference: mean(logsumexp(l) - l[y])
    and a gradient of (softmax(l) - onehot) / B. The reference's own rounding of
    logits up to 1e3 is about 1e-13 absolute, so the loss is compared relative to
    max(loss, 1) and the gradient relative to 1/B, the largest an entry can be."""
    b, k = logits.shape
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=b, max_size=b)))
    rows = np.arange(b)
    want_loss = np.mean(logsumexp(logits, axis=1) - logits[rows, labels])
    want_grad = softmax(logits, axis=1)
    want_grad[rows, labels] -= 1.0
    want_grad /= b
    t = Tensor(logits, requires_grad=True)
    with ad.recording():
        loss = ad.cross_entropy(t, labels)
        ad.backward(loss)
    assert abs(float(loss.data) - want_loss) <= 1e-12 * max(want_loss, 1.0)
    assert np.max(np.abs(t.grad - want_grad)) <= 1e-12 / b


def test_confidently_wrong_window_keeps_its_gradient():
    # a softmax floored at 1e-12 read 27.63 here, and its gradient was [-0, -0]
    t = Tensor([[0.0, 40.0]], requires_grad=True)
    with ad.recording():
        loss = ad.cross_entropy(t, np.array([0]))
        ad.backward(loss)
    assert float(loss.data) == 40.0
    assert np.array_equal(t.grad, [[-1.0, 1.0]])


# The fused ops against the unfused compositions they replace, kept here as
# oracles. Both do the same float64 operations in the same order, so they agree
# bit for bit; the bound is the one a reordered sum would still meet.


def _bmm(a, b):
    """Batched [..., M, K] @ [..., K, N] over equal leading axes, taped through
    ad._record. The engine's matmul takes only a 2-D right operand, since the
    model runs no other; the attention oracle needs this one."""
    out = Tensor(a.data @ b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b.accumulate(np.swapaxes(a.data, -1, -2) @ g)

    return ad._record(out, (a, b), bwd)


def _unfused_attention(q, k, v, n_heads):
    b, tq, hdh = q.shape
    dh = hdh // n_heads

    def heads(y):
        return ad.transpose(ad.reshape(y, (b, y.shape[1], n_heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = heads(q), heads(k), heads(v)
    scores = ad.scale(_bmm(qh, ad.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)
    out = ad.reshape(ad.transpose(_bmm(attn, vh), (0, 2, 1, 3)), (b, tq, hdh))
    return out, attn.data


def _unfused_residual_layer_norm(x, gamma, beta, residual, residual_scale):
    return ad.layer_norm(ad.add(x, ad.scale(residual, residual_scale)), gamma, beta)


def _unfused_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _run_both(fused, unfused, arrays, weight):
    """For each op: its output, any arrays it returns besides, and the input
    gradients of sum(weight * output)."""
    results = []
    for op in (fused, unfused):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        with ad.recording():
            out, *extras = op(tensors)
            ad.backward(project(out, weight))
        results.append([out.data, *extras, *(t.grad for t in tensors)])
    return results


def _assert_close(fused, unfused):
    for i, (got, want) in enumerate(zip(fused, unfused)):
        assert _rel_err(got, want) <= 1e-12, f"item {i}"


@given(b=st.integers(1, 3), t=st.integers(1, 6), h=st.integers(1, 3),
       dh=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_attention_matches_unfused(b, t, h, dh, data, seed):
    """Also with fewer query rows than key rows, as the model's last layer runs it."""
    tq = data.draw(st.integers(1, t), label="tq")
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(b, n, h * dh)) for n in (tq, t, t)]
    fused, unfused = _run_both(lambda x: ad.attention(*x, h), lambda x: _unfused_attention(*x, h),
                               arrays, rng.normal(size=(b, tq, h * dh)))
    assert fused[1].shape == (b, h, tq, t)
    _assert_close(fused, unfused)


@given(lead=st.lists(st.integers(1, 4), min_size=0, max_size=2), d=st.integers(2, 6),
       c=st.sampled_from([1.0, 1.25, 2.0]), seed=st.integers(0, 2**32 - 1))
def test_residual_layer_norm_matches_unfused(lead, d, c, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(*lead, d)), rng.normal(size=d), rng.normal(size=d),
              rng.normal(size=(*lead, d))]
    fused, unfused = _run_both(
        lambda x: (ad.layer_norm(x[0], x[1], x[2], residual=x[3], residual_scale=c),),
        lambda x: (_unfused_residual_layer_norm(*x, c),),
        arrays, rng.normal(size=(*lead, d)))
    _assert_close(fused, unfused)


@given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=3), k=st.integers(1, 5),
       n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_biased_linear_matches_unfused(lead, k, n, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(*lead, k)), rng.normal(size=(k, n)), rng.normal(size=n)]
    fused, unfused = _run_both(lambda x: (ad.matmul(*x),), lambda x: (_unfused_linear(*x),),
                               arrays, rng.normal(size=(*lead, n)))
    _assert_close(fused, unfused)


@given(data=st.data())
def test_matmul_refuses_all_but_a_2d_right_operand_of_matching_k(data):
    """A right operand of rank other than 2, or whose K is not a's last axis, is
    refused, with or without a bias, naming both shapes and taping nothing."""
    dims = st.integers(1, 4)
    a_shape = tuple(data.draw(st.lists(dims, min_size=1, max_size=3), label="a_shape"))
    k = a_shape[-1]
    b_rank = data.draw(st.sampled_from([0, 1, 2, 3, 4]), label="b_rank")
    if b_rank == 2:
        b_shape = (data.draw(dims.filter(lambda m: m != k), label="wrong_k"), data.draw(dims))
    else:
        b_shape = tuple(data.draw(st.lists(dims, min_size=b_rank, max_size=b_rank)))
    bias = Tensor(np.zeros(b_shape[-1:] or (1,)), requires_grad=True) \
        if data.draw(st.booleans(), label="bias") else None
    a = Tensor(np.zeros(a_shape), requires_grad=True)
    b = Tensor(np.zeros(b_shape), requires_grad=True)
    with ad.recording():
        with pytest.raises(ValueError, match="matmul shape mismatch") as err:
            ad.matmul(a, b, bias)
        assert f"{a_shape} @ {b_shape}" in str(err.value)
        assert ad._TAPE == []


class TestFusedOpInputs:
    def test_bias_needs_2d_right_operand(self):
        with pytest.raises(ValueError, match=re.escape("(2, 2, 3) @ (2, 3, 4)")):
            ad.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 3, 4))),
                      Tensor(np.zeros(4)))

    def test_attention_heads_must_divide_width(self):
        q = Tensor(np.zeros((1, 2, 5)))
        with pytest.raises(ValueError, match="H=2"):
            ad.attention(q, q, q, 2)

    @pytest.mark.parametrize("q_shape, k_shape, v_shape", [
        ((2, 1, 4), (3, 3, 4), (3, 3, 4)),      # batch sizes differ
        ((2, 1, 4), (2, 3, 4), (2, 2, 4)),      # k and v differ
        ((2, 1, 6), (2, 3, 4), (2, 3, 4)),      # last axes differ
        ((2, 1, 5), (2, 3, 5), (2, 3, 5)),      # H=2 does not divide H*dh
    ])
    def test_attention_shape_mismatch_names_all_three_shapes(self, q_shape, k_shape, v_shape):
        q, k, v = (Tensor(np.zeros(shape), requires_grad=True)
                   for shape in (q_shape, k_shape, v_shape))
        with ad.recording():
            with pytest.raises(ValueError, match=re.escape(
                    f"H=2 dividing H*dh, got q {q_shape}, k {k_shape}, v {v_shape}")):
                ad.attention(q, k, v, 2)
            assert ad._TAPE == []


class TestBackwardSemantics:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with ad.recording():
            ad.backward(project(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with ad.recording():
            ad.backward(ad.reshape(ad.matmul(ad.reshape(x, (1, 3)), ad.reshape(x, (3, 1))), ()))
        assert np.allclose(x.grad, 2 * x.data)

    def test_reuse_accumulates(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with ad.recording():
            ad.backward(project(ad.add(x, x)))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_inputs_of_one_add_do_not_share_gradient_memory(self):
        a = Tensor(np.ones(4), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        with ad.recording():
            s = ad.add(a, b)
            ad.backward(project(ad.add(s, a)))  # a is consumed twice
        assert np.array_equal(a.grad, np.full(4, 2.0))
        assert np.array_equal(b.grad, np.ones(4))
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(s.grad, a.grad)

    def test_backward_frees_each_node_once_used(self):
        n = 2 ** 17
        x = Tensor(np.ones(n), requires_grad=True)
        with ad.recording():
            y = x
            for _ in range(20):
                y = ad.scale(y, 1.0)
            loss = project(y)
            del y
            tracemalloc.start()
            try:
                ad.backward(loss)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # holding every node's gradient until the end would peak above 20 arrays
        assert peak <= 5 * x.data.nbytes
        assert np.array_equal(x.grad, np.ones(n))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with ad.recording(), pytest.raises(ValueError):
            ad.backward(ad.add(x, x))

    def test_tape_cleared_after_backward(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.recording():
            ad.backward(project(ad.add(x, x)))
            assert ad._TAPE == []

    def test_no_grad_blocks_recording(self):
        # outside recording() nothing is taped
        x = Tensor(np.ones(3), requires_grad=True)
        out = ad.add(x, x)
        assert not out.requires_grad
        assert ad._TAPE == []

    def test_backward_outside_recording_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = project(ad.add(x, x))
        with pytest.raises(ValueError, match="recording"):
            ad.backward(loss)
        assert x.grad is None

    def test_backward_after_recording_exited_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.recording():
            loss = project(ad.add(x, x))
        with pytest.raises(ValueError, match="recording"):
            ad.backward(loss)
        assert x.grad is None

    def test_error_in_recording_drops_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="matmul shape mismatch"):
            with ad.recording():
                h = ad.add(x, x)
                ad.matmul(h, x)  # 1D operands raise after one node is taped
        assert ad._TAPE == []
        assert h._backward is None
        out = ad.add(x, x)
        assert not out.requires_grad
        assert ad._TAPE == []

    def test_recording_does_not_nest(self):
        with ad.recording():
            with pytest.raises(RuntimeError, match="nest"):
                with ad.recording():
                    pass
            assert ad._GRAD_ENABLED
        assert not ad._GRAD_ENABLED


class TestTapePerThread:
    """Each thread has its own tape and recording flag, read as ad._TAPE and
    ad._GRAD_ENABLED from that thread."""

    def test_two_threads_record_at_once_on_their_own_tapes(self):
        together = threading.Barrier(2, timeout=30)
        seen, errors = {}, []

        def record(name, n_ops):
            x = Tensor(np.ones(3), requires_grad=True)
            with ad.recording():
                y = x
                for _ in range(n_ops):
                    y = ad.scale(y, 2.0)
                together.wait()  # both threads are inside recording(), their ops taped
                seen[name] = len(ad._TAPE)
                together.wait()  # both have counted before either runs backward
                ad.backward(project(y))
                seen[name, "after backward"] = len(ad._TAPE)
            seen[name, "grad"] = x.grad
            seen[name, "left"] = (len(ad._TAPE), ad._GRAD_ENABLED)

        def helper():
            try:
                record("helper", 3)
            except BaseException as e:  # reported by the calling thread
                errors.append(e)
                together.abort()

        thread = threading.Thread(target=helper)
        thread.start()
        try:
            record("main", 1)
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert errors == []
        assert (seen["main"], seen["helper"]) == (1, 3)
        for name, factor in (("main", 2.0), ("helper", 8.0)):
            assert seen[name, "after backward"] == 0
            assert np.array_equal(seen[name, "grad"], np.full(3, factor))
            assert seen[name, "left"] == (0, False)
        assert ad._TAPE == []
        assert not hasattr(ad, "_TAPES")

    def test_recording_does_not_nest_while_another_thread_records(self):
        inside, release, seen = threading.Event(), threading.Event(), []

        def other():
            with ad.recording():
                ad.scale(Tensor(np.ones(3), requires_grad=True), 2.0)
                inside.set()
                release.wait(timeout=30)
                seen.append((len(ad._TAPE), ad._GRAD_ENABLED))

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert inside.wait(timeout=30)
            assert ad._TAPE == [] and not ad._GRAD_ENABLED
            with ad.recording():
                with pytest.raises(RuntimeError, match="nest"):
                    with ad.recording():
                        pass
                assert ad._GRAD_ENABLED
            assert not ad._GRAD_ENABLED
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen == [(1, True)]


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        p = Tensor(np.ones(4), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(4)
        opt.step()
        assert np.array_equal(p.data, np.ones(4))

    def test_first_step_magnitude(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.01, weight_decay=0.0)
        p.grad = np.array([0.5, -2.0, 1.0])
        opt.step()
        # bias correction makes the first update ~ lr * sign(g)
        assert np.allclose(p.data, -0.01 * np.sign(p.grad), atol=1e-6)

    def test_converges_on_quadratic_bowl(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=8)
        w *= 1.0 / np.linalg.norm(w)
        p = Tensor(w, requires_grad=True)
        opt = AdamW({"w": p}, lr=1e-2, weight_decay=0.0)
        for _ in range(500):
            p.grad = 2 * p.data
            opt.step()
        assert np.linalg.norm(p.data) < 1e-2

    def test_decay_shrinks_norm(self):
        p = Tensor(np.full(4, 2.0), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.1)
        norms = [np.linalg.norm(p.data)]
        for _ in range(5):
            p.grad = np.zeros(4)
            opt.step()
            norms.append(np.linalg.norm(p.data))
        assert all(b < a for a, b in zip(norms, norms[1:]))
