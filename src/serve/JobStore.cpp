//===- serve/JobStore.cpp - The requests dmp_served still owes ------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/JobStore.h"

using namespace dmp;
using namespace dmp::serve;

serialize::Digest JobStore::listKey() {
  const char Domain[] = "dmp-serve-owed-v2";
  return serialize::Hasher::hash(Domain, sizeof(Domain) - 1);
}

JobStore::JobStore(std::shared_ptr<serialize::ArtifactCache> Cache)
    : Cache(std::move(Cache)) {
  StatusOr<std::vector<uint8_t>> Blob = this->Cache->load(listKey());
  if (!Blob.ok())
    return;
  serialize::ByteReader R(*Blob);
  const uint32_t Count = R.readU32();
  for (uint32_t I = 0; I < Count && R.ok(); ++I) {
    serialize::Digest Key;
    R.readBytes(Key.Bytes.data(), Key.Bytes.size());
    const uint64_t Len = R.readU64();
    if (!R.ok() || Len > R.remaining())
      break;
    std::vector<uint8_t> Bytes(Len);
    R.readBytes(Bytes.data(), Bytes.size());
    SubmitRequest Request;
    if (!decodeSubmit(Bytes, Request).ok())
      break;
    Owed.emplace(Key.hex(), std::make_pair(Key, std::move(Bytes)));
  }
  if (!R.ok() || !R.atEnd() || Owed.size() != Count)
    Owed.clear();
}

Status JobStore::persist() {
  serialize::ByteWriter W;
  W.writeU32(static_cast<uint32_t>(Owed.size()));
  for (const auto &[Hex, Entry] : Owed) {
    W.writeBytes(Entry.first.Bytes.data(), Entry.first.Bytes.size());
    W.writeU64(Entry.second.size());
    W.writeBytes(Entry.second.data(), Entry.second.size());
  }
  return Cache->store(listKey(), W.bytes());
}

Status JobStore::add(const serialize::Digest &Key,
                     const SubmitRequest &Request) {
  if (!Owed.emplace(Key.hex(), std::make_pair(Key, encodeSubmit(Request)))
           .second)
    return Status();
  return persist();
}

Status JobStore::remove(const serialize::Digest &Key) {
  if (Owed.erase(Key.hex()) == 0)
    return Status();
  return persist();
}

std::vector<std::pair<serialize::Digest, SubmitRequest>>
JobStore::owed() const {
  std::vector<std::pair<serialize::Digest, SubmitRequest>> Out;
  Out.reserve(Owed.size());
  for (const auto &[Hex, Entry] : Owed) {
    Out.emplace_back(Entry.first, SubmitRequest());
    // Every entry decoded when it was loaded or added.
    (void)decodeSubmit(Entry.second, Out.back().second);
  }
  return Out;
}
