"""Tensor value semantics, broadcasting, autodiff, PRNG, serialization."""

import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import captured, tape_nodes

from ctanet import gradcheck as G
from ctanet import nn
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

    @pytest.mark.parametrize("entry", [0, -1, 5, np.int64(1)])
    def test_slice_rejects_int_entries(self, entry):
        # an int used to become slice(k, k + 1): -1 and 5 gave an empty axis
        x = T.uniform([2, 3, 4], seed=9, dtype="f64")
        with pytest.raises(ShapeError, match=f"slice_ .* entry {re.escape(repr(entry))}"):
            T.slice_(x, (slice(None), entry))

    def test_slice_keeps_every_axis(self):
        x = T.uniform([2, 3, 4], seed=9, dtype="f64")
        assert T.slice_(x, (slice(None), slice(-1, None))).data.tolist() == x.data[:, -1:].tolist()
        assert T.slice_(x, (..., slice(1, 3))).shape == (2, 3, 2)


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
        assert not y.requires_grad and y.node is None


def _tiny_loss(dtype, batch, depth=1):
    cfg = tiny_config(depth=depth)
    net = model_init(cfg, seed=3, dtype=dtype)
    img = T.uniform([batch, 3, cfg.image_size, cfg.image_size], seed=4, dtype=dtype)
    labels = np.arange(batch) % cfg.num_classes
    return net, cross_entropy(model_forward(img, net), labels)


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

    def test_backward_leaves_every_node_value_unchanged(self, monkeypatch):
        # The graph holds no values, so the forward's outputs are kept here,
        # along with every array a closure saved and every parameter.
        outputs, real = [], T._make

        def keep(data, parents, backward_fn, op):
            outputs.append(real(data, parents, backward_fn, op))
            return outputs[-1]

        monkeypatch.setattr(T, "_make", keep)
        cfg = tiny_config(depth=1)
        net = model_init(cfg, seed=3, dtype="f64")
        img = T.uniform([2, 3, cfg.image_size, cfg.image_size], seed=4, dtype="f64")
        loss = cross_entropy(model_forward(img, net), np.array([1, 5]))
        values = [t.data for t in outputs] + [p.data for p in net.parameters()] + [
            a for n in tape_nodes(loss) for a in captured(n.backward_fn) if isinstance(a, np.ndarray)]
        before = [a.tobytes() for a in values]
        T.backward(loss)
        # the final block's conv detour cannot reach a class-token head
        # (see test_model.py::test_no_dead_parameters)
        last_detour = f"blocks.{cfg.depth - 1}.rrcv."
        assert all(p.grad is not None for name, p in net.named_parameters()
                   if not name.startswith(last_detour))
        assert [a.tobytes() for a in values] == before

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


def _spy_recorded(monkeypatch):
    """The list that every node ``T._make`` records is appended to from now on."""
    recorded, real = [], T._make

    def spy(data, parents, backward_fn, op):
        out = real(data, parents, backward_fn, op)
        if out.node is not None:
            recorded.append(out.node)
        return out

    monkeypatch.setattr(T, "_make", spy)
    return recorded


class TestGraphNodes:
    """A recorded op's output points to a node that links only to its
    parents' nodes; a closure keeps only the arrays its backward reads."""

    def test_leaf_is_its_own_node(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = T.add(x, Tensor([3.0, 4.0]))
        assert x.node is x and Tensor([1.0]).node is None
        assert y.node.op == "add" and y.node.parents == (x, None)
        assert T.reduce_sum(y).node.parents == (y.node,)

    def test_value_no_closure_reads_is_freed(self):
        w = T.uniform([3, 4], -1, 1, seed=2, dtype="f64")
        grads = []
        for drop in (False, True):
            x = Tensor(T.uniform([3, 4], -1, 1, seed=1, dtype="f64").data, requires_grad=True)
            y = T.add(T.mul(x, w), w)         # reduce_sum's backward does not read y
            loss = T.reduce_sum(y)
            value = weakref.ref(y.data)
            if drop:
                del y
                assert value() is None
            T.backward(loss)
            grads.append(x.grad)
        assert np.array_equal(grads[0], grads[1]) and np.array_equal(grads[1], w.data)

    @pytest.mark.parametrize("rrcv,attention", [("resnet", "lmf_mhsa"), ("cnn", "mhsa"),
                                                ("dwconv", "lmf_mhsa")])
    def test_no_closure_holds_a_tensor(self, rrcv, attention):
        cfg = tiny_config(depth=2, rrcv_variant=rrcv, attention_kind=attention)
        net = model_init(cfg, seed=3, dtype="f64")
        img = T.uniform([2, 3, cfg.image_size, cfg.image_size], seed=4, dtype="f64")
        loss = cross_entropy(model_forward(img, net), np.array([1, 5]))
        nodes = tape_nodes(loss)
        assert all(p is None or isinstance(p, T.Node) or (isinstance(p, Tensor) and p.node is p)
                   for n in nodes for p in n.parents)
        held = [(n.op, type(a).__name__) for n in nodes for a in captured(n.backward_fn)
                if isinstance(a, (Tensor, T.Node))]
        assert held == []

    @pytest.mark.parametrize("use_cls", [True, False])
    @pytest.mark.parametrize("rrcv", ["none", "cnn", "dwconv", "resnet"])
    @pytest.mark.parametrize("attention", ["lmf_mhsa", "mhsa"])
    def test_every_recorded_node_is_reached(self, monkeypatch, attention, rrcv, use_cls):
        # a node the walk from the logits misses is an op no backward reads
        cfg = tiny_config(depth=2, attention_kind=attention, rrcv_variant=rrcv,
                          use_class_token=use_cls)
        net = model_init(cfg, seed=3, dtype="f64")
        img = T.uniform([2, 3, cfg.image_size, cfg.image_size], seed=4, dtype="f64")
        recorded = _spy_recorded(monkeypatch)
        logits = model_forward(img, net)
        assert len(recorded) == len(tape_nodes(logits))

    def test_op_checks_record_every_op_the_source_makes(self, monkeypatch):
        # the ops named in the package's `_make` calls are exactly the ops
        # the gradient-check probes record, and every probe records one
        src = os.path.join(os.path.dirname(__file__), "..", "src", "ctanet")
        text = ""
        for fname in sorted(os.listdir(src)):
            if fname.endswith(".py"):
                with open(os.path.join(src, fname)) as fh:
                    text += fh.read()
        names = re.findall(r'_make\([^\n]*?, "(\w+)"\)', text)
        made = set(names)
        # every call names its op as a literal, and no two calls share a name
        assert len(re.findall(r"(?<!def )\b_make\(", text)) == len(names) == len(made)
        recorded = _spy_recorded(monkeypatch)
        seen = set()
        for name, _, fn, x in G.op_checks(seed=0):
            recorded.clear()
            fn(Tensor(x.data, requires_grad=True))
            assert recorded, name
            seen.update(n.op for n in recorded)
        assert seen == made

    def test_no_op_check_closure_holds_a_tensor(self):
        for name, _, fn, x in G.op_checks(seed=0):
            nodes = tape_nodes(fn(Tensor(x.data, requires_grad=True)))
            held = [n.op for n in nodes for a in captured(n.backward_fn) if isinstance(a, (Tensor, T.Node))]
            assert nodes and held == [], name

    def test_residual_stream_values_are_freed(self, monkeypatch):
        cfg = tiny_config(depth=2)
        refs, real = [], T._make

        def spy(data, parents, backward_fn, op):
            out = real(data, parents, backward_fn, op)
            if op == "add" and out.shape == (2, cfg.tokens, cfg.embed_dim):
                refs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(T, "_make", spy)
        net = model_init(cfg, seed=3, dtype="f64")
        img = T.uniform([2, 3, cfg.image_size, cfg.image_size], seed=4, dtype="f64")
        loss = cross_entropy(model_forward(img, net), np.array([1, 5]))
        assert loss.requires_grad and len(refs) == 3   # positions, and one block's two residuals
        assert sum(r() is not None for r in refs) == 0


class TestTapeRelease:
    """``backward`` releases each interior node right after its own closure
    runs, and a sweep, finished or failed, is final."""

    def test_swept_nodes_hold_nothing_when_the_next_closure_runs(self):
        net, loss = _tiny_loss("f64", batch=2)
        interior = tape_nodes(loss)
        swept, stale = [], []

        def watch(node, fn):
            def run(g):
                stale.extend(d.op for d in swept
                             if d.grad is not None or d.backward_fn is not None or d.parents)
                grads = fn(g)
                swept.append(node)
                return grads
            return run

        for node in interior:
            node.backward_fn = watch(node, node.backward_fn)
        T.backward(loss)
        assert len(swept) == len(interior)
        assert stale == []
        assert all(n.grad is None and n.backward_fn is None and n.parents == () for n in swept)
        last_detour = f"blocks.{net.config.depth - 1}.rrcv."
        assert all(p.grad is not None for name, p in net.named_parameters()
                   if not name.startswith(last_detour))

    def test_sweep_peak_stays_near_its_start(self, monkeypatch):
        # Beyond what the tape holds when the sweep starts, a released sweep
        # adds the leaves' gradients (the parameters' bytes), the gradients
        # at its frontier (a residual stream and one branch) and one
        # closure's temporaries (at most two values' worth): four of the
        # largest tape values bound the last two. Keeping every interior
        # gradient to the end adds about one more tape, ~5x this bound.
        sizes, real = [], T._make

        def measure(data, parents, backward_fn, op):
            out = real(data, parents, backward_fn, op)
            if out.requires_grad:
                sizes.append(out.data.nbytes)
            return out

        monkeypatch.setattr(T, "_make", measure)
        tracemalloc.start()
        try:
            net, loss = _tiny_loss("f32", batch=8, depth=tiny_config().depth)
            largest = max(sizes)
            bound = sum(p.data.nbytes for p in net.parameters()) + 4 * largest
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= bound, (peak - start, bound)

    def test_forward_tape_holds_only_what_backward_reads(self):
        # Counted in token-stream tensors u = [B, T, D]; at the tiny preset the
        # detour's [B, H, W, C] maps, its [B, N, C p^2] patches and the
        # attention weights [B, h, T, T/4] are each about u too. A value lives
        # only while a closure reads it. A block keeps ln1 2 (normalized
        # input; output, read by the fusion convs), fusion 4 (three branches,
        # read by the reduce's dW; concat, read by q k v), q 1 (read by
        # attend), the K/V token reduce 2.5 (two gathered inputs, two short
        # outputs), attend 2 (weights; context, read by out), ln2 1
        # (normalized input), the detour 7 (gathered tokens, map, first conv
        # + its GELU derivative 2, skip sum, gathered patches, concat) and
        # fc1 + its GELU derivative 8 (4x wide): 27.5. The K and V
        # projections, the fusion reduce, out, fc2, both residual sums, re,
        # the second conv, pconv and embed outputs are read by no closure and
        # are freed. The class-row last block keeps ln1, fusion and the K/V
        # reduce (8.5), the patch embedding its gathered patches (1):
        # 27.5 (depth - 1) + 9.5 = 92 u, 12.2 MB at B=8, plus 10% for norm
        # statistics and class rows. Keeping every recorded output as well
        # adds ~44 u (~18 MB in all).
        cfg = tiny_config()
        net = model_init(cfg, seed=3, dtype="f32")
        img = T.uniform([8, 3, cfg.image_size, cfg.image_size], seed=4, dtype="f32")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = cross_entropy(model_forward(img, net), np.arange(8) % cfg.num_classes)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        u = 8 * cfg.tokens * cfg.embed_dim * 4
        bound = 1.1 * (27.5 * (cfg.depth - 1) + 9.5) * u
        assert loss.requires_grad
        assert held <= bound, (held, bound)

    def test_failed_sweep_cannot_be_retried(self, monkeypatch):
        real = nn.layer_norm

        def sabotaged(x, p):
            out = real(x, p)

            def broken(g):
                raise FloatingPointError("closure failed")
            out.node.backward_fn = broken
            return out

        monkeypatch.setattr(nn, "layer_norm", sabotaged)
        net, loss = _tiny_loss("f64", batch=2)
        with pytest.raises(FloatingPointError):
            T.backward(loss)
        partial = {name: p.grad.copy() for name, p in net.named_parameters() if p.grad is not None}
        assert partial  # the head's gradients landed before the final norm failed
        with pytest.raises(ContractError, match="twice"):
            T.backward(loss)
        params = dict(net.named_parameters())
        assert all(np.array_equal(params[name].grad, g) for name, g in partial.items())

    def test_second_loss_on_a_swept_subgraph_moves_no_gradient(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        a = T.mul(x, x)
        T.backward(T.reduce_sum(a))
        swept = x.grad.copy()
        # the second loss reads `a` again, and also `w`, which no sweep reached yet
        with pytest.raises(ContractError, match="twice"):
            T.backward(T.reduce_sum(T.mul(a, w)))
        assert np.array_equal(x.grad, swept)
        assert w.grad is None


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
            with T.check_finite():
                T.div(Tensor([1.0, 1.0]), x)

    def test_first_nonfinite_op_is_named(self):
        # log makes the NaN and exp passes it on: the check stops at log
        x = Tensor([-1.0])
        with pytest.raises(NumericsError, match="op 'log'"):
            T.grad_check(lambda t: T.exp(T.log(t)), x)

    def test_unchecked_forward_keeps_nonfinite_values(self):
        y = T.exp(T.log(Tensor([-1.0, 1.0])))
        assert np.isnan(y.data[0]) and y.data[1] == 1.0

    @staticmethod
    def _probe_check(coef, grad_error):
        """grad_check_params on L = 2.3 + <coef, p>, whose recorded gradient
        is coef + grad_error."""
        p = Tensor(np.array([0.3, -0.2, 0.1]), requires_grad=True)

        def loss():
            def backward(g):
                return (g * (coef + grad_error),)
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
