package daemon

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// gridGolden pins one grid's trajectory over Script(seed, machCap, 600):
// the digest after every 100th event, the final Quality bits and the
// final counters.
type gridGolden struct {
	seed            uint64
	machCap, jobCap int
	digests         [6]string
	makespan        uint64 // math.Float64bits
	flowtime        uint64
	counters        Counters
}

// TestGridGoldenDigests pins the grid's trajectory from one version of
// the code to the next. The tortures and the replay tests compare a run
// with its own replay, so a change that moves both sides the same way —
// a different default search budget, a different tie-break — passes
// them; it fails here. Each case also snapshots the grid at event 300,
// round-trips the document through JSON and requires the restored grid
// to continue through the same pinned digests.
func TestGridGoldenDigests(t *testing.T) {
	for _, want := range gridGoldens {
		name := fmt.Sprintf("%dx%d/seed%d", want.machCap, want.jobCap, want.seed)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed, cfg.MachCap, cfg.JobCap = want.seed, want.machCap, want.jobCap
			script := Script(want.seed, cfg.MachCap, 600)
			g, err := NewGrid(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var restored *Grid
			for i, e := range script {
				if err := g.Apply(e); err != nil {
					t.Fatalf("event %d (%+v): %v", i, e, err)
				}
				if restored != nil {
					if err := restored.Apply(e); err != nil {
						t.Fatalf("restored grid, event %d (%+v): %v", i, e, err)
					}
				}
				n := i + 1
				if n == 300 {
					var buf bytes.Buffer
					if err := g.WriteSnapshot(&buf); err != nil {
						t.Fatal(err)
					}
					if restored, err = ReadSnapshot(&buf); err != nil {
						t.Fatal(err)
					}
				}
				if n%100 != 0 {
					continue
				}
				if got := g.Digest(); got != want.digests[n/100-1] {
					t.Errorf("after event %d the digest reads %q, want %q", n, got, want.digests[n/100-1])
				}
				if restored != nil {
					if got := restored.Digest(); got != want.digests[n/100-1] {
						t.Errorf("after event %d the restored grid's digest reads %q, want %q", n, got, want.digests[n/100-1])
					}
				}
			}
			mk, fl := g.Quality()
			if math.Float64bits(mk) != want.makespan || math.Float64bits(fl) != want.flowtime {
				t.Errorf("final quality bits %#x, %#x; want %#x, %#x", math.Float64bits(mk), math.Float64bits(fl), want.makespan, want.flowtime)
			}
			if got := g.Counters(); got != want.counters {
				t.Errorf("final counters %#v, want %#v", got, want.counters)
			}
			if g.Counters().Grows == 0 {
				t.Error("the grid never grew")
			}
		})
	}
}

var gridGoldens = []gridGolden{
	{
		seed: 1, machCap: 4, jobCap: 4,
		digests: [6]string{
			"11f5aca9e1dcf36d2eaea6ac2dd2a06a3dabfe1dce2db9b5b3f673ffd9091781",
			"552a5bd2076a5751d5462dded83df0695b8ecf173d060fa372098feba5b8d52f",
			"bf9c1a04272361a10b7aee5c6808c59541f0b4d711510f68b83accf3c56cc930",
			"5159b129de36305fe90893d8a405445bd5dfb3632a79abd8fd44e65ad525fb6b",
			"27b167c5f3b0f2c1b4e524cb4c3e4e6edb54b2de36bc0080a667a9031835218b",
			"17169e42fe06b7da2ac3b4a59cdfc911eed000f1bfe646c93f94cc50a720f3ca",
		},
		makespan: 0x408b3bebadbc4ab4, flowtime: 0x40eec36becd3703e,
		counters: Counters{Submitted: 347, Placed: 1106, Completed: 124, Restarts: 610, Rebalance: 759, Admits: 73, Grows: 6, Joined: 29, Left: 27},
	},
	{
		seed: 2, machCap: 4, jobCap: 4,
		digests: [6]string{
			"45eee22caefb9fda8ffd36cfd4d98bb2b8cf1af7a838bd35bebeace1e6b6a3de",
			"8273463227d6fe709a7e66c9af621f2f7704cbf988e6fb048811d2f99fade4a7",
			"c7db81bda737abcce3cd0a2181abb11a2369e3efa6e9504e599134f1e78ac32e",
			"ed8631105f26ade347de696fe84d75a2d15f902511ee0ecbc1e3221715f814be",
			"a9c023e2359cc7c7ea61dc6ff1c974cb52f6d4100698f1926dbf2b6e21abf0f4",
			"eb06927176c8632e2a761525aa2ff1e78c44ea1ec7a3618239aca341d9e206cb",
		},
		makespan: 0x40a0f3c74aaf18eb, flowtime: 0x41043cb81f48ce6f,
		counters: Counters{Submitted: 336, Placed: 1371, Completed: 115, Restarts: 365, Rebalance: 1036, Admits: 85, Grows: 6, Joined: 34, Left: 30},
	},
	{
		seed: 3, machCap: 4, jobCap: 4,
		digests: [6]string{
			"0ddfb461a2502e676a61aece3b531ce170ddfee0aa3397cfb293f9b30f639824",
			"b9b1810f8a614795198acc74721cde98546adbfae0c046c91a5ff176b948454e",
			"11cbfc56841dcc627df1f039196df9272bc86fa41bd990e2cf2a19be88198326",
			"5602bf9d31f30193546df7a587a4b56f7fa7fc636bdb685ffa0eeb976c952839",
			"4249f4f19b1f239d0903ab554529cd448f7c5de6a1f8a6a76dab13dde9ada38c",
			"014deb5998c08d001d6df4813d1528be2295d3e8dc7a0e8941c78bf5f9bbd83d",
		},
		makespan: 0x40a4f3546511526e, flowtime: 0x410b7b8c58398f8d,
		counters: Counters{Submitted: 351, Placed: 1362, Completed: 100, Restarts: 891, Rebalance: 1020, Admits: 88, Grows: 6, Joined: 32, Left: 29},
	},
	{
		seed: 1, machCap: 8, jobCap: 8,
		digests: [6]string{
			"fd29c583ad2759128dad6793213e31397e2baaacea7003fa52acf6d224c784de",
			"e2ad28c594889d1f3adf59d4f026a822556351212de897413a5264668ddd8600",
			"954e2091a885644bbcfe2d8da285dd8e839aa66fabf459baa28e217afd3260a4",
			"b69e74e6e144bb0d58c9b66b1743d8f3cc3844fcbfb3afdebb44f0dcc1562ccc",
			"39265579457db91373f7e5989cc6a287b4af5046466765f5558488918783d325",
			"d6b35750dc411737ddf4dfdd997d8e9e945a70e060079687356d32dbac7e21c3",
		},
		makespan: 0x407c30f01f6e1d47, flowtime: 0x40e23492f5f75d8a,
		counters: Counters{Submitted: 345, Placed: 1024, Completed: 120, Restarts: 557, Rebalance: 680, Admits: 72, Grows: 5, Joined: 34, Left: 29},
	},
	{
		seed: 2, machCap: 8, jobCap: 8,
		digests: [6]string{
			"5a3f96b49a19b794dd1ca30fca521a7d9170752159852bfae80ae2c8e5c50188",
			"34df412a5b3c1ad289c578470c79ea8f3e403cf60c23017f23580f6cb66f9cdc",
			"e7611dd4d863802f17e5b4a4225e23a2420dbdaf27cdf9e4444b04c68e883429",
			"f792ab40cf3812160393f1a3c61cc9117f531d6c9f933199a1a563bdaeb79b6e",
			"0e979ccaf199bf5b1bc8ce4948e8cfce359ce52764ebf668246109961df26d73",
			"6aaf88d2f68f8363eb567613e99104cc4441715027f35c288d3b38853f1a7215",
		},
		makespan: 0x407418ee0cd559ba, flowtime: 0x40d9489cbad0c1e7,
		counters: Counters{Submitted: 335, Placed: 719, Completed: 114, Restarts: 164, Rebalance: 389, Admits: 86, Grows: 5, Joined: 36, Left: 29},
	},
	{
		seed: 3, machCap: 8, jobCap: 8,
		digests: [6]string{
			"a6795fd5aa00d0099285e7e22d1fc6dc2e74f3fc979eaa1a71f1a166670ba49c",
			"3bc823b6ebe2c03d766ca5993b764583522e03832c15185b9da3f1bde0517d2f",
			"1c780f78d909a395ea9472479a82c223d5cf44ccfe7559b60c74dfa449133508",
			"357eda106c37fc3dd2f01eee7057ab0e5c246dbf3a94ffcfaa6ab26cddb85088",
			"efd6986912a57f5d5781626a82eb6cd81d58021ea9382471356e4fe6ecb57316",
			"ea2fe923799691fe3f3d9c823f1249f67a4f68e71a6f31c856019e6340d38eca",
		},
		makespan: 0x407ed281258e6fe0, flowtime: 0x40e540c1e44a6f46,
		counters: Counters{Submitted: 347, Placed: 897, Completed: 95, Restarts: 334, Rebalance: 556, Admits: 89, Grows: 5, Joined: 38, Left: 31},
	},
	{
		seed: 1, machCap: 64, jobCap: 16,
		digests: [6]string{
			"eb289b462458a2f907483341eb2e67048d4b88ae37f9230f19baac6436c18d97",
			"f615c1821c5d5e943f1f988b2ec5a1d97573fc5a7c270acab0b6eb7405375f50",
			"75fd14b8156ed1fe58c5c806985218a04a8760f21ae00c3625a1f599ffb77829",
			"281a9fa5c4bb54257211dae0f63289c310e70f84ac3e925f9fc30aea96de9943",
			"ebfd42efdca0065d4ba47595bafea8aee1c08056d9afefe2562e80781054958d",
			"1261b99d69137fd43b56412b75c480ad0696d924095651d530cd8b3d0a37af07",
		},
		makespan: 0x4068d2b8212fc3c7, flowtime: 0x40c95c5abaadce77,
		counters: Counters{Submitted: 347, Placed: 527, Completed: 119, Restarts: 160, Rebalance: 181, Admits: 71, Grows: 4, Joined: 41, Left: 22},
	},
	{
		seed: 2, machCap: 64, jobCap: 16,
		digests: [6]string{
			"9902178f9bcb2a129832f595d62a853b8e671deb754afe29dca2c3aea3d0a0aa",
			"e5da6679e8c745865b8a35521b32e77d4c5e81f053d5ae0f2bce48517535e7d9",
			"da1533e3a97cfe48afdb4d698e601c5251fc7367d608209bcf303100d3ebf3c8",
			"96518045306fc075affc62712b9c3b96d558dde28ad86572947ddc2db9487ea2",
			"0ffaca69c801c1f81fb6fc86006e1c2dc4a18c94ede9e324466809731533b564",
			"5931c62b66f6122b42f8f4167c14e553f8335e37d1f4c4b32698ae3b13f7279c",
		},
		makespan: 0x405214e485f4941a, flowtime: 0x40bc4ba655c8d6c0,
		counters: Counters{Submitted: 339, Placed: 461, Completed: 111, Restarts: 61, Rebalance: 124, Admits: 83, Grows: 4, Joined: 49, Left: 18},
	},
	{
		seed: 3, machCap: 64, jobCap: 16,
		digests: [6]string{
			"3a1ff671d51298ed65c244953e2b5b3b3eda1af9f95b342ac631c98fb11053d5",
			"1d59115ca9b6ce2de31ca594f22103ab48dcfe5948c0b0900cabfff259679478",
			"8d86eaf1f8229892004ae4ac2e7ea4023320ffcdca7859ec2f839cc80e725a47",
			"9db840002fb6b8e64a624d50b3a991b14a1d4a6552df91b6e51065fbc6f5d64d",
			"1b63d449c32561408be08088161d21e7cd5d358206d2bea17804a6e8bbc99032",
			"d5ed1308f6d20944b1f80d6efe283eb537b344cecea83570640d0539321d1c58",
		},
		makespan: 0x40578bfc5c421d82, flowtime: 0x40c1cfd82550ac7b,
		counters: Counters{Submitted: 349, Placed: 507, Completed: 94, Restarts: 107, Rebalance: 167, Admits: 87, Grows: 4, Joined: 48, Left: 22},
	},
}
