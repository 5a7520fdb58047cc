// Package libgen generates parameter-sharing model libraries matching the
// paper's simulation setup (§VII-A): the special case (ResNet-18/34/50
// families fine-tuned by bottom-layer freezing from three pre-trained
// models) and the general case (two-round fine-tuning per Table I), plus a
// LoRA-style LLM library as an extension.
//
// The paper builds its library from real fine-tuned checkpoints. The
// placement problem consumes only block sizes and the sharing structure, so
// this package reproduces those exactly: per-layer parameter counts are
// computed from the actual ResNet architectures (conv + batch-norm + FC
// parameter layers), and freeze depths are drawn from the paper's ranges.
package libgen

import (
	"fmt"
)

// ResNetVariant selects one of the three backbone families used in §VII-A.
type ResNetVariant int

// The three ResNet variants of the paper.
const (
	ResNet18 ResNetVariant = iota + 1
	ResNet34
	ResNet50
)

// String returns the canonical lowercase name of the variant.
func (v ResNetVariant) String() string {
	switch v {
	case ResNet18:
		return "resnet18"
	case ResNet34:
		return "resnet34"
	case ResNet50:
		return "resnet50"
	default:
		return fmt.Sprintf("resnet(%d)", int(v))
	}
}

// Layer is one trainable parameter layer (= one parameter block in the
// paper's model): a convolution, a batch-norm, or the final FC layer.
type Layer struct {
	Label  string // e.g. "layer3.1.conv2"
	Params int64  // number of trainable parameters
}

// layerBuilder accumulates parameter layers for a ResNet.
type layerBuilder struct {
	layers []Layer
}

func (b *layerBuilder) conv(label string, k, in, out int) {
	b.layers = append(b.layers, Layer{Label: label, Params: int64(k) * int64(k) * int64(in) * int64(out)})
}

func (b *layerBuilder) bn(label string, ch int) {
	// Batch norm has a scale and a shift per channel.
	b.layers = append(b.layers, Layer{Label: label, Params: 2 * int64(ch)})
}

func (b *layerBuilder) fc(label string, in, out int) {
	b.layers = append(b.layers, Layer{Label: label, Params: int64(in)*int64(out) + int64(out)})
}

// basicBlock appends a torchvision BasicBlock: two 3x3 convs (+BN), with a
// 1x1 downsample conv (+BN) when the input shape changes.
func (b *layerBuilder) basicBlock(prefix string, in, out int, downsample bool) {
	b.conv(prefix+".conv1", 3, in, out)
	b.bn(prefix+".bn1", out)
	b.conv(prefix+".conv2", 3, out, out)
	b.bn(prefix+".bn2", out)
	if downsample {
		b.conv(prefix+".downsample.0", 1, in, out)
		b.bn(prefix+".downsample.1", out)
	}
}

// bottleneck appends a torchvision Bottleneck: 1x1 reduce, 3x3, 1x1 expand
// (expansion 4), each with BN, plus an optional downsample path.
func (b *layerBuilder) bottleneck(prefix string, in, mid int, downsample bool) {
	out := 4 * mid
	b.conv(prefix+".conv1", 1, in, mid)
	b.bn(prefix+".bn1", mid)
	b.conv(prefix+".conv2", 3, mid, mid)
	b.bn(prefix+".bn2", mid)
	b.conv(prefix+".conv3", 1, mid, out)
	b.bn(prefix+".bn3", out)
	if downsample {
		b.conv(prefix+".downsample.0", 1, in, out)
		b.bn(prefix+".downsample.1", out)
	}
}

// ResNetLayers returns the ordered trainable parameter layers of the variant
// with a classification head of numClasses outputs (the paper fine-tunes on
// CIFAR-100 tasks). Layer order is bottom (input) to top (head), matching
// the paper's bottom-layer freezing.
func ResNetLayers(v ResNetVariant, numClasses int) ([]Layer, error) {
	if numClasses <= 0 {
		return nil, fmt.Errorf("libgen: numClasses must be positive, got %d", numClasses)
	}
	var blocksPerStage [4]int
	bottleneckArch := false
	switch v {
	case ResNet18:
		blocksPerStage = [4]int{2, 2, 2, 2}
	case ResNet34:
		blocksPerStage = [4]int{3, 4, 6, 3}
	case ResNet50:
		blocksPerStage = [4]int{3, 4, 6, 3}
		bottleneckArch = true
	default:
		return nil, fmt.Errorf("libgen: unknown ResNet variant %d", int(v))
	}

	var b layerBuilder
	b.conv("conv1", 7, 3, 64)
	b.bn("bn1", 64)

	stageMid := [4]int{64, 128, 256, 512}
	in := 64
	for stage := 0; stage < 4; stage++ {
		mid := stageMid[stage]
		for blk := 0; blk < blocksPerStage[stage]; blk++ {
			prefix := fmt.Sprintf("layer%d.%d", stage+1, blk)
			if bottleneckArch {
				out := 4 * mid
				// The first bottleneck of every stage changes channel count
				// (64→256 in stage 1) or strides, so it needs a downsample.
				down := blk == 0
				b.bottleneck(prefix, in, mid, down)
				in = out
			} else {
				// BasicBlock stages downsample on the first block of stages
				// 2-4 (stage 1 keeps 64 channels and stride 1).
				down := blk == 0 && stage > 0
				b.basicBlock(prefix, in, mid, down)
				in = mid
			}
		}
	}
	b.fc("fc", in, numClasses)
	return b.layers, nil
}

// FreezeRange is the paper's per-family range for the number of frozen
// bottom layers of a fine-tuned downstream model (§VII-A).
type FreezeRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// PaperFreezeRange returns the §VII-A freeze ranges: [29,40] for ResNet-18,
// [49,72] for ResNet-34, [87,106] for ResNet-50.
func PaperFreezeRange(v ResNetVariant) (FreezeRange, error) {
	switch v {
	case ResNet18:
		return FreezeRange{Min: 29, Max: 40}, nil
	case ResNet34:
		return FreezeRange{Min: 49, Max: 72}, nil
	case ResNet50:
		return FreezeRange{Min: 87, Max: 106}, nil
	default:
		return FreezeRange{}, fmt.Errorf("libgen: unknown ResNet variant %d", int(v))
	}
}
