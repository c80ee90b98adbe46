"""Tensor value semantics, broadcasting, autodiff, PRNG, serialization."""

import numpy as np
import pytest

from ctanet import tensor as T
from ctanet.errors import ContractError, NumericsError, ShapeError
from ctanet.model import model_forward, model_init, tiny_config
from ctanet.nn import cross_entropy
from ctanet.tensor import Tensor


class TestConstruction:
    def test_ones_fill(self):
        t = T.ones([2, 2], dtype="f64")
        assert t.data.tolist() == [[1, 1], [1, 1]]

    def test_uniform_same_seed_bit_identical(self):
        a = T.uniform([4], 0, 1, seed=7, dtype="f64")
        b = T.uniform([4], 0, 1, seed=7, dtype="f64")
        assert a.data.tobytes() == b.data.tobytes()

    def test_uniform_different_seed_differs(self):
        a = T.uniform([16], seed=1)
        b = T.uniform([16], seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_generator_golden_values(self):
        # the counter-based generator is a fixed algorithm; these anchors
        # must never drift across releases or platforms
        words = T.random_u64(7, 3)
        assert words.tolist() == [7191089600892374487, 309689372594955804,
                                  16616101746815609346]
        u = T.uniform([4], 0, 1, seed=7, dtype="f64")
        assert np.allclose(u.data, [0.38982974839127, 0.01678829452816,
                                    0.90076068060688, 0.58293029302808],
                           rtol=0, atol=1e-14)
        assert T.fold_seed(7, 1) != T.fold_seed(7, 2)
        assert T.fold_seed(7, 1) == T.fold_seed(7, 1)

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            T.zeros([2, 0])
        with pytest.raises(ShapeError):
            T.ones([-1])

    def test_row_major_contiguous(self):
        t = T.uniform([3, 4, 5], seed=9)
        assert t.data.flags["C_CONTIGUOUS"]


class TestElementwise:
    def test_add(self):
        assert T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]

    def test_mul_broadcast_against_index_oracle(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([10.0, 20.0])
        got = T.mul(Tensor(a), Tensor(b)).data
        want = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                want[i, j] = a[i, 0] * b[j]
        assert np.array_equal(got, want)
        assert got.tolist() == [[10.0, 20.0], [20.0, 40.0]]

    def test_exp_identity(self):
        assert T.exp(Tensor([0.0])).data.tolist() == [1.0]

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 2.0]))

    def test_div_by_zero_propagates_ieee(self):
        out = T.div(Tensor([1.0, -1.0, 0.0]), Tensor([0.0, 0.0, 0.0]))
        assert np.isinf(out.data[0]) and np.isinf(out.data[1]) and np.isnan(out.data[2])

    def test_dtype_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.add(T.ones([2], "f32"), T.ones([2], "f64"))

    def test_maximum(self):
        out = T.maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        assert out.data.tolist() == [3.0, 5.0]


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(eye, m).data, m.data)

    def test_row_times_column(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_batched_against_triple_loop(self):
        a = T.uniform([2, 3, 4], -1, 1, seed=11, dtype="f64").data
        b = T.uniform([2, 4, 5], -1, 1, seed=12, dtype="f64").data
        got = T.matmul(Tensor(a), Tensor(b)).data
        want = np.zeros((2, 3, 5))
        for bb in range(2):
            for i in range(3):
                for j in range(5):
                    for k in range(4):
                        want[bb, i, j] += a[bb, i, k] * b[bb, k, j]
        assert np.abs(got - want).max() <= 1e-12

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.ones([2, 3]), T.ones([4, 2]))


class TestSoftmax:
    def test_symmetry(self):
        assert T.softmax(Tensor([0.0, 0.0])).data.tolist() == [0.5, 0.5]

    def test_closed_form(self):
        out = T.softmax(Tensor([np.log(2.0), 0.0]))
        assert np.abs(out.data - np.array([2 / 3, 1 / 3])).max() < 1e-12

    def test_max_subtraction_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 1000.0]))
        assert out.data.tolist() == [0.5, 0.5]

    def test_rows_sum_to_one(self):
        x = T.uniform([4, 7], -5, 5, seed=3, dtype="f64")
        s = T.softmax(x, axis=-1)
        assert np.abs(s.data.sum(-1) - 1).max() <= 1e-6
        assert (s.data > 0).all() and (s.data < 1).all()


class TestReductionsAndShape:
    def test_population_variance(self):
        assert abs(T.reduce_var(Tensor([1.0, 2.0, 3.0])).item() - 2 / 3) < 1e-15

    def test_concat(self):
        out = T.concat([Tensor([[1.0]]), Tensor([[2.0]])], axis=1)
        assert out.data.tolist() == [[1.0, 2.0]]

    def test_permute_round_trip_bitwise(self):
        x = T.uniform([2, 3, 4], seed=5)
        back = T.permute(T.permute(x, (2, 0, 1)), (1, 2, 0))
        assert back.data.tobytes() == x.data.tobytes()

    def test_reshape_round_trip_bitwise(self):
        x = T.uniform([6, 4], seed=6)
        back = T.reshape(T.reshape(x, [2, 12]), [6, 4])
        assert back.data.tobytes() == x.data.tobytes()

    def test_concat_of_split_bitwise(self):
        x = T.uniform([5, 7], seed=8)
        parts = T.split(x, [2, 1, 4], axis=1)
        assert T.concat(parts, axis=1).data.tobytes() == x.data.tobytes()

    def test_reduce_dispatch(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert T.reduce(x, "sum").item() == 10.0
        assert T.reduce(x, "mean", axis=0).data.tolist() == [2.0, 3.0]
        with pytest.raises(ShapeError):
            T.reduce(x, "median")

    def test_bad_permutation(self):
        with pytest.raises(ShapeError):
            T.permute(T.ones([2, 3]), (0, 0))


class TestBackward:
    def test_square_sum_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(T.reduce_sum(T.mul(x, x)))
        assert x.grad.tolist() == [2.0, 4.0, 6.0]

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(T.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_fanout_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, Tensor([3.0, 3.0]))
        T.backward(T.reduce_sum(T.add(y, y)))
        g_double = x.grad.copy()
        x.grad = None
        y = T.mul(x, Tensor([3.0, 3.0]))
        T.backward(T.reduce_sum(y))
        assert np.array_equal(g_double, 2.0 * x.grad)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.mul(x, x))

    def test_double_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        loss = T.reduce_sum(x)
        T.backward(loss)
        with pytest.raises(ContractError):
            T.backward(loss)

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad and y._parents == ()


class TestMutationRule:
    """Tape values are never mutated: shape ops return views, and a gradient
    shared by several tensors is never written in place."""

    def test_shape_ops_return_views(self):
        x = T.uniform([2, 3, 4], seed=1, dtype="f64")
        col = T.uniform([2, 1], seed=2, dtype="f64")
        assert np.shares_memory(T.reshape(x, [6, 4]).data, x.data)
        assert np.shares_memory(T.permute(x, (2, 0, 1)).data, x.data)
        assert np.shares_memory(T.slice_(x, (slice(None), slice(1, 3))).data, x.data)
        wide = T.expand(col, [2, 5])
        assert np.shares_memory(wide.data, col.data)
        assert not wide.data.flags.writeable

    def test_backward_leaves_every_node_value_unchanged(self):
        cfg = tiny_config(depth=1)
        net = model_init(cfg, seed=3, dtype="f64")
        img = T.uniform([2, 3, cfg.image_size, cfg.image_size], seed=4, dtype="f64")
        loss = cross_entropy(model_forward(img, net), np.array([1, 5]))
        nodes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        before = [n.data.tobytes() for n in nodes]
        T.backward(loss)
        # the final block's conv detour cannot reach a class-token head
        # (see test_model.py::test_no_dead_parameters)
        last_detour = f"blocks.{cfg.depth - 1}.rrcv."
        assert all(p.grad is not None for name, p in net.named_parameters()
                   if not name.startswith(last_detour))
        assert [n.data.tobytes() for n in nodes] == before

    def test_shared_upstream_gradient_is_not_written_through(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        w = Tensor([5.0, 7.0])
        T.backward(T.reduce_sum(T.mul(T.add(a, b), w)))   # a and b get the same g
        T.backward(T.reduce_sum(T.mul(a, a)))
        assert a.grad.tolist() == [7.0, 11.0]
        assert b.grad.tolist() == [5.0, 7.0]

    def test_slice_backward_adds_to_existing_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        other = Tensor(np.zeros((2, 3)), requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.add(x, other), Tensor(np.full((2, 3), 2.0)))))
        T.backward(T.reduce_sum(T.slice_(x, (slice(None), slice(1, 3)))))
        assert x.grad.tolist() == [[2.0, 3.0, 3.0], [2.0, 3.0, 3.0]]
        assert other.grad.tolist() == [[2.0] * 3] * 2


class TestGradCheck:
    def test_square_sum(self):
        x = T.uniform([5], -2, 2, seed=1, dtype="f64")
        assert T.grad_check(lambda t: T.reduce_sum(T.mul(t, t)), x) <= 1e-6

    def test_constant_function_both_sides_near_zero(self):
        x = T.uniform([4], -1, 1, seed=2, dtype="f64")
        x0 = Tensor(x.data.copy(), requires_grad=True)
        loss = T.reduce_sum(T.softmax(x0))
        T.backward(loss)
        assert np.abs(x0.grad).max() < 1e-12  # analytic ~ 0 for a constant map

    def test_requires_f64(self):
        with pytest.raises(ContractError):
            T.grad_check(lambda t: T.reduce_sum(t), T.ones([2], "f32"))

    def test_nonfinite_diagnostic_names_op(self):
        x = Tensor([1.0, 0.0], requires_grad=False)
        with pytest.raises(NumericsError, match="div"):
            y = T.div(Tensor([1.0, 1.0]), x)
            T.check_finite_graph(y)

    @staticmethod
    def _probe_check(coef, grad_error):
        """grad_check_params on L = 2.3 + <coef, p>, whose recorded gradient
        is coef + grad_error."""
        p = Tensor(np.array([0.3, -0.2, 0.1]), requires_grad=True)

        def loss():
            def backward(g):
                T._accumulate(p, g * (coef + grad_error))
            return T._make(np.asarray(2.3 + p.data @ coef), (p,), backward, "probe")

        return T.grad_check_params(loss, [("p", p)], eps=1e-5)["p"]

    def test_params_requires_f64_names_the_parameter(self):
        p = T.ones([2], "f32", requires_grad=True)
        with pytest.raises(ContractError, match="'head.bias' is f32"):
            T.grad_check_params(lambda: T.reduce_sum(p), [("head.bias", p)])

    def test_params_one_percent_error_on_small_gradient_fails(self):
        coef = np.array([2e-7, 0.5, -1.0])
        assert self._probe_check(coef, np.array([2e-9, 0.0, 0.0])) > 1e-4

    def test_params_roundoff_sized_difference_passes(self):
        # 1e-10 on a 1e-8 gradient is 1% relative, but below the central
        # difference's own round-off at L ~ 2.1 (4 ulp / eps ~ 1.8e-10)
        coef = np.array([1e-8, 0.5, -1.0])
        assert self._probe_check(coef, np.array([1e-10, 0.0, 0.0])) == 0.0

    def test_five_random_inputs_per_core_op(self):
        for seed in range(5):
            w = T.uniform([3, 3], -1, 1, seed=100 + seed, dtype="f64")
            for name, fn in [
                ("mul", lambda t: T.reduce_sum(T.mul(T.mul(t, t), w))),
                ("matmul", lambda t: T.reduce_sum(T.matmul(t, w))),
                ("softmax", lambda t: T.reduce_sum(T.mul(T.softmax(t, -1), w))),
            ]:
                x = T.uniform([3, 3], -1, 1, seed=seed, dtype="f64")
                err = T.grad_check(fn, x)
                assert err <= 1e-6, (name, seed, err)


class TestSerialization:
    def test_header_layout(self):
        t = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        blob = T.tensor_to_bytes(t)
        assert blob[0] == 0                                   # f32 tag
        assert int.from_bytes(blob[1:5], "little") == 2       # rank
        assert int.from_bytes(blob[5:13], "little") == 1      # extent 0
        assert int.from_bytes(blob[13:21], "little") == 2     # extent 1
        assert np.frombuffer(blob[21:], dtype="<f4").tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_round_trip(self, dtype):
        t = T.uniform([3, 2, 4], -5, 5, seed=13, dtype=dtype)
        back, consumed = T.tensor_from_bytes(T.tensor_to_bytes(t))
        assert consumed == len(T.tensor_to_bytes(t))
        assert back.dtype == dtype and back.shape == t.shape
        assert back.data.tobytes() == t.data.tobytes()

    def test_truncation_rejected(self):
        blob = T.tensor_to_bytes(T.ones([4]))
        with pytest.raises(ContractError, match="truncated"):
            T.tensor_from_bytes(blob[:-3])
