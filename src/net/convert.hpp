// Bridges between the wire messages (net/wire.hpp) and the serving
// layer's in-memory currency (serve/tensor_op_service.hpp).  Header-only;
// used by the server dispatch loop, the trace replayer, and tests.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "serve/tensor_op_service.hpp"

namespace bcsf::net {

/// Moves a decoded query into a ServeRequest (the factor set and lambda
/// become the request's shared immutable copies).
inline ServeRequest to_request(QueryMsg&& msg) {
  ServeRequest request;
  request.tensor = std::move(msg.tensor);
  request.mode = msg.mode;
  request.op = msg.op;
  request.factors = std::make_shared<const std::vector<DenseMatrix>>(
      std::move(msg.factors));
  if (msg.has_lambda) {
    request.lambda =
        std::make_shared<const std::vector<value_t>>(std::move(msg.lambda));
  }
  return request;
}

/// Projects a response onto the wire's DETERMINISTIC fields (timings stay
/// behind -- see ResultMsg).
inline ResultMsg to_result(std::uint64_t id, const ServeResponse& response) {
  ResultMsg msg;
  msg.id = id;
  msg.op = response.op;
  msg.output = response.output;
  msg.scalar = response.scalar;
  msg.sequence = response.sequence;
  msg.snapshot_version = response.snapshot_version;
  msg.delta_nnz = response.delta_nnz;
  msg.shards = static_cast<std::uint32_t>(response.shards);
  msg.served_format = response.served_format;
  msg.upgraded = response.upgraded;
  return msg;
}

}  // namespace bcsf::net
