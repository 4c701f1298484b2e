#include "check/int_oracle.hpp"

#include "net/headers.hpp"
#include "telemetry/int_wire.hpp"

namespace dart::check {

std::vector<std::byte> reference_int_transit(
    std::span<const std::byte> frame, const telemetry::IntHopMetadata& hop) {
  const auto parsed = net::parse_udp_frame(frame);
  if (!parsed) return {};
  std::vector<std::byte> payload(parsed->payload.begin(),
                                 parsed->payload.end());
  (void)telemetry::int_transit_push(payload, hop);

  net::UdpFrameSpec spec;
  spec.src_mac = parsed->eth.src;
  spec.dst_mac = parsed->eth.dst;
  spec.src_ip = parsed->ip.src;
  spec.dst_ip = parsed->ip.dst;
  spec.src_port = parsed->udp.src_port;
  spec.dst_port = telemetry::kIntUdpPort;
  spec.ttl = static_cast<std::uint8_t>(parsed->ip.ttl > 0 ? parsed->ip.ttl - 1
                                                          : 0);
  spec.dscp = parsed->ip.dscp;
  spec.protocol = parsed->ip.protocol;
  auto out = net::build_udp_frame(spec, payload);
  if (!net::parse_udp_frame(out)) return {};
  return out;
}

}  // namespace dart::check
