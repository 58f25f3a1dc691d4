import json

import numpy as np
import pytest

from infosale import (InputError, Instance, PreconditionError, bayes_update,
                      conditional_belief, instance_to_json_dict,
                      is_independent, load_instance, outside_option,
                      positive_types, prior_view, surplus, treasure_box,
                      validate)


def test_treasure_box_shape(box):
    assert box.omega == ("0", "1")
    assert box.theta == ("0", "1")
    assert box.budgets == (50.0, 100.0)
    assert box.seller_budget == 0.0
    assert box.prior.sum() == pytest.approx(1.0, abs=1e-12)
    marg = box.type_marginal()
    assert marg[0, 0] == pytest.approx(0.5)   # theta 0 always carries 50
    assert marg[1, 1] == pytest.approx(0.5)   # theta 1 always carries 100
    assert marg[0, 1] == marg[1, 0] == 0.0


def test_surplus_values(box):
    assert surplus(box, "0") == 60.0
    assert surplus(box, "1") == 40.0
    assert surplus(box, "0", 50.0) == 60.0
    assert surplus(box, "1", 100.0) == 40.0


def test_outside_option(box):
    assert outside_option(box, "0", 50.0) == 60.0
    assert outside_option(box, "1", 100.0) == 40.0


def _bend_prior(box, shift):
    prior = box.prior.copy()
    prior[0, 0, 0] += shift
    prior[1, 0, 0] -= shift
    return Instance(box.omega, box.theta, box.actions, box.budgets,
                    box.seller_budget, prior, box.utility)


def test_independence(box):
    assert is_independent(box)
    assert not is_independent(_bend_prior(box, 0.05))


def test_positive_types(box):
    assert positive_types(box) == [(0, 0), (1, 1)]


def test_bayes_update():
    post = bayes_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert np.allclose(post, [1.0, 0.0])
    post = bayes_update(np.array([0.25, 0.75]), np.array([0.2, 0.2]))
    assert np.allclose(post, [0.25, 0.75])


def test_conditional_belief(box):
    assert np.allclose(conditional_belief(box, 0, 0), [0.5, 0.5])
    assert np.allclose(conditional_belief(box, 1, 1), [0.5, 0.5])
    with pytest.raises(PreconditionError):
        conditional_belief(box, 0, 1)  # zero-probability pair


def test_json_round_trip(box, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json_dict(box)))
    again = load_instance(path)
    assert again.omega == box.omega and again.budgets == box.budgets
    assert np.allclose(again.prior, box.prior)
    assert np.allclose(again.utility, box.utility)


def test_validation_rejects_bad_inputs(box):
    data = instance_to_json_dict(box)
    with pytest.raises(InputError):
        load_instance({**data, "prior": [[0.5]]})
    with pytest.raises(InputError):
        load_instance({**data, "budgets": [100.0, 50.0]})
    with pytest.raises(InputError):
        load_instance({**data, "seller_budget": -1.0})
    with pytest.raises(InputError):
        load_instance("this is not json {")
    doubled = [dict(row, p=2 * row["p"]) for row in data["prior"]]
    with pytest.raises(InputError):
        load_instance({**data, "prior": doubled})
    short = [row for row in data["utility"] if row["a"] != "1"]
    with pytest.raises(InputError):
        load_instance({**data, "utility": short})


def test_label_lookup_errors(box):
    with pytest.raises(InputError):
        box.theta_id("nope")
    with pytest.raises(InputError):
        box.budget_id(77.0)
    validate(box)  # and the canonical example itself is valid


def test_prior_view_of_an_instance(box):
    view = prior_view(box)
    assert view.instance is box
    assert view.index == ((0, 0), (1, 1)) and view.pairs() == [(0, 0), (1, 1)]
    assert np.array_equal(view.weights, [0.5, 0.5])
    assert np.array_equal(view.joint, [[0.25, 0.25], [0.25, 0.25]])
    assert np.array_equal(view.beliefs, [conditional_belief(box, 0, 0),
                                         conditional_belief(box, 1, 1)])
    assert view.weight(1, 1) == 0.5 and view.weight(0, 1) == 0.0
    assert np.array_equal(view.belief(1, 1), [0.5, 0.5])
    with pytest.raises(InputError):
        view.belief(0, 1)  # zero-probability pair
    assert prior_view(view) is view
    with pytest.raises(InputError):
        prior_view({"omega": ["0"]})
