#ifndef ARECEL_FEEDBACK_ONLINE_MODEL_DETAIL_H_
#define ARECEL_FEEDBACK_ONLINE_MODEL_DETAIL_H_

#include <cstdint>
#include <vector>

// Internals of OnlineSubspaceModel::Predict, declared here so tests can
// check the neighbour order directly. Not part of the feedback API.
namespace arecel::feedback::detail {

// One remembered observation scored against a probe.
struct Neighbour {
  double distance;
  uint64_t seq;  // insertion order, unique within a model.
  double target;
};

// Moves the k nearest of `scored` to its front, nearest first, newer first
// on equal distances: the order Predict weighs its neighbours in. Elements
// past k are left in unspecified order.
void SelectNearest(std::vector<Neighbour>* scored, size_t k);

}  // namespace arecel::feedback::detail

#endif  // ARECEL_FEEDBACK_ONLINE_MODEL_DETAIL_H_
