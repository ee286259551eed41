import numpy as np
import pytest

from genscope.classifier import (
    BagOfWordsVectorizer,
    CsrMatrix,
    GenericityClassifier,
    GenericityModel,
    loss_and_gradient,
    predict_score,
    train_logistic,
)
from genscope.errors import InputError
from genscope.synth import generate_training_texts

from oracles import central_difference


class TestTraining:
    def test_separable_two_points(self):
        model = train_logistic([[1.0], [-1.0]], [1, 0], epochs=200)
        assert model.weights[0] > 0
        scores = predict_score(model, [[1.0], [-1.0]])
        assert ((scores >= 0.5).astype(int) == [1, 0]).all()

    def test_zero_init_scores_half(self):
        model = GenericityModel(weights=np.zeros(4), bias=0.0)
        assert predict_score(model, [1.0, -2.0, 3.0, 0.5]) == 0.5

    def test_loss_non_increasing(self):
        rng = np.random.RandomState(0)
        x = rng.randn(50, 8)
        y = (x[:, 0] + 0.3 * rng.randn(50) > 0).astype(int)
        model = train_logistic(x, y, epochs=100)
        diffs = np.diff(model.loss_history)
        assert (diffs <= 1e-15).all()

    def test_deterministic_bit_identical(self):
        rng = np.random.RandomState(1)
        x = rng.randn(40, 6)
        y = (rng.rand(40) > 0.5).astype(int)
        if y.sum() in (0, 40):
            y[0] = 1 - y[0]
        a = train_logistic(x, y, seed=42)
        b = train_logistic(x, y, seed=42)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    def test_stronger_l2_shrinks_weights(self):
        rng = np.random.RandomState(2)
        x = rng.randn(60, 5)
        y = (x @ np.array([1.0, -2.0, 0.5, 0, 0]) > 0).astype(int)
        small = train_logistic(x, y, l2=1e-4, epochs=4000)
        large = train_logistic(x, y, l2=1e-1, epochs=4000)
        assert np.linalg.norm(large.weights) <= np.linalg.norm(small.weights) + 1e-8

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            train_logistic([[1.0], [2.0]], [1, 1])

    def test_bad_labels_rejected(self):
        with pytest.raises(InputError):
            train_logistic([[1.0], [2.0]], [1, 2])

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, float("nan")])
    def test_bad_threshold_rejected_before_descent(self, threshold, monkeypatch):
        def no_descent(*args):
            raise AssertionError("gradient descent ran")

        monkeypatch.setattr("genscope.classifier.logistic.loss_and_gradient", no_descent)
        with pytest.raises(InputError, match="threshold"):
            train_logistic([[1.0], [-1.0]], [1, 0], threshold=threshold)

    def test_inconsistent_dimension_rejected(self):
        model = GenericityModel(weights=np.zeros(3), bias=0.0)
        for features in ([1.0, 2.0], CsrMatrix([0, 1], [1], [1.0], 2)):
            with pytest.raises(InputError, match="dimension"):
                predict_score(model, features)

    def test_sparse_training_matches_dense(self):
        texts, labels = generate_training_texts(n=300, seed=11)
        x = BagOfWordsVectorizer(min_count=2).fit_transform(texts)
        dense = np.zeros(x.shape)
        dense[x.rows, x.indices] = x.data
        sparse_model = train_logistic(x, labels, epochs=100)
        dense_model = train_logistic(dense, labels, epochs=100)
        np.testing.assert_allclose(
            sparse_model.weights, dense_model.weights, rtol=0, atol=1e-12
        )
        assert sparse_model.bias == pytest.approx(dense_model.bias, rel=0, abs=1e-12)
        np.testing.assert_allclose(
            sparse_model.loss_history, dense_model.loss_history, rtol=0, atol=1e-12
        )


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.RandomState(7)
        for _ in range(20):
            x = rng.randn(20, 10)
            y = (rng.rand(20) > 0.5).astype(float)
            w = rng.randn(10)
            b = float(rng.randn())
            l2 = float(rng.choice([0.0, 1e-4, 1e-2]))

            _, grad_w, grad_b = loss_and_gradient(w, b, x, y, l2)

            def f(theta):
                return loss_and_gradient(
                    np.array(theta[:-1]), theta[-1], x, y, l2
                )[0]

            numeric = central_difference(f, list(w) + [b], step=1e-5)
            analytic = list(grad_w) + [grad_b]
            for got, want in zip(analytic, numeric):
                scale = max(abs(got), abs(want), 1e-8)
                assert abs(got - want) / scale < 1e-4


class TestPrediction:
    def _model(self, w, b=0.0):
        return GenericityModel(weights=np.array(w, dtype=float), bias=b)

    def test_monotone_in_logit(self):
        model = self._model([2.0])
        scores = [predict_score(model, [x]) for x in (0.0, 1.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(scores, scores[1:]))
        assert scores[-1] > 0.999

    def test_sigmoid_symmetry_with_zero_bias(self):
        model = self._model([1.3, -0.7])
        x = np.array([0.4, 2.0])
        assert predict_score(model, x) + predict_score(model, -x) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.RandomState(5)
        w = rng.randn(6)
        model = self._model(w)
        x = rng.randn(30, 6)
        perm = rng.permutation(6)
        permuted = self._model(w[perm])
        assert np.allclose(
            predict_score(model, x), predict_score(permuted, x[:, perm]), atol=0
        )

    def test_sparse_vector_inputs(self):
        model = self._model([1.0, -1.0, 0.5])
        csr = CsrMatrix([0, 2, 2], [0, 2], [2.0, 1.0], 3)
        scores = predict_score(model, csr)
        assert scores.shape == (2,)
        assert scores[0] == pytest.approx(
            predict_score(model, [2.0, 0.0, 1.0])[0], abs=0
        )
        assert scores[1] == 0.5
        assert predict_score(model, CsrMatrix([0], [], [], 3)).shape == (0,)


class TestEstimatorApi:
    def test_unfitted_predict_raises(self):
        with pytest.raises(InputError):
            GenericityClassifier().predict_proba(["x"])
