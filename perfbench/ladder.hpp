// The ladder: one caller sends the same seeded key stream into each layer's
// public entry point in turn, so the differences between rungs are service
// times rather than queueing.
//
//   ladder-net   --workload W --seed N --server ip:port --out PATH
//                [--gateway ip:port --router ip:port] [--echo-cpus 2,3]
//                [--spans PATH]
//     rungs: gateway (net::HttpClient::get), router (same call), udp
//     (router::UdpQosClient::call), floor (an echo between two
//     net::UdpSocket the benchmark owns: the kernel and wake-up floor).
//
//   ladder-local --workload W --seed N --table-keys T --wal PATH --out PATH
//                [--spans PATH]
//     in-process rungs: db::RuleStore load/get/put, core::AdmissionController
//     ::check over core::DbRuleSource (cold and warm), wire::encode_to and
//     decode_*, and checkpoint_now through a WAL-backed DbRuleSink over a
//     table of T entries.
#pragma once

#include "harness.hpp"

namespace janus::perfbench {

int cmd_ladder_net(const Args& args);
int cmd_ladder_local(const Args& args);

}  // namespace janus::perfbench
