// Command sentineld runs one node of a multi-process sentinel
// cluster. Each process carries one or more roles over the shared rpc
// fabric (see package sentinel's cluster runtime):
//
//	broker   bus replica + partition-group election candidate
//	store    storage stack (sentinel.NewStorage) + storage writers
//	detect   streaming detector pool over the remote bus
//	gateway  web surface + coordination (ZooKeeper-like) service
//
// A four-process cluster, one broker, two stores, and a combined
// detect+gateway node hosting coordination:
//
//	PEERS=broker=127.0.0.1:7401,store-1=127.0.0.1:7402,store-2=127.0.0.1:7403,dg=127.0.0.1:7404
//	sentineld -name broker  -role broker       -listen 127.0.0.1:7401 -peers $PEERS -zk-node dg -stores 2
//	sentineld -name store-1 -role store        -listen 127.0.0.1:7402 -peers $PEERS -zk-node dg -stores 2
//	sentineld -name store-2 -role store        -listen 127.0.0.1:7403 -peers $PEERS -zk-node dg -stores 2
//	sentineld -name dg -role detect,gateway -listen 127.0.0.1:7404 -peers $PEERS -stores 2 -http 127.0.0.1:8080
//
// Every node must agree on -partitions, -units and -sensors. The
// gateway's -http serves the full /api/v1 surface (ingest, query,
// SSE anomaly stream, metrics, readiness, the cluster map and the
// HTML control center); on other roles -http serves a minimal ops
// surface (metrics, cluster map, health). SIGINT/SIGTERM shut the
// node down cleanly, deleting its membership record.
package main
